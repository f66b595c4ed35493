package core

import (
	"time"

	"reviewsolver/internal/apk"
	"reviewsolver/internal/code2vec"
	"reviewsolver/internal/obs"
	"reviewsolver/internal/phrase"
	"reviewsolver/internal/pos"
	"reviewsolver/internal/qa"
	"reviewsolver/internal/sdk"
	"reviewsolver/internal/sentiment"
	"reviewsolver/internal/textclass"
	"reviewsolver/internal/textproc"
	"reviewsolver/internal/wordvec"
)

// TopN is the number of ranked classes recommended to developers (§4.3).
const TopN = 15

// Solver is ReviewSolver: it identifies function-error reviews and maps
// them to the problematic classes of the app.
type Solver struct {
	catalog    *sdk.Catalog
	vec        *wordvec.Model
	tagger     *pos.Tagger
	extractor  *phrase.Extractor
	normalizer *textproc.Normalizer
	sentiment  sentiment.Analyzer
	qaIndex    *qa.Index
	summarizer *code2vec.Model
	classifier textclass.Classifier
	vectorizer *textclass.Vectorizer

	// rec receives spans, counters, and histograms from the pipeline. Nil
	// (the default) disables all metric/span emission: every hook is
	// nil-safe, so the hot path pays only nil checks.
	rec *obs.Recorder

	// appLabel, when set alongside rec, additionally bumps per-app labeled
	// children of the pipeline counters (reviews_total{app="…"}, …) so a
	// fleet daemon sharing one registry across apps gets a per-app
	// breakdown. Empty (the default) emits aggregate counters only.
	appLabel string

	// changeAware boosts candidate classes touched between the review's
	// release and its predecessor to the top of the ranking (§4.1.6's
	// update intuition applied at rank time).
	changeAware bool

	// snap, when set, is the shared immutable precomputed state this
	// solver reads through instead of its private caches below.
	snap *Snapshot

	// staticCache memoizes the §3.3 extraction per release pointer.
	// Unused (nil) when snap is set.
	staticCache map[*apk.Release]*StaticInfo

	// catalogVecCache holds the describing-phrase embeddings of the whole
	// framework catalog (Algorithm 1 compares each review phrase against
	// every documented API, not only the ones the app calls). Unused when
	// snap is set.
	catalogVecCache *catalogTable

	// fe is the NLP front-end engine: interner, sentence-analysis cache,
	// phrase-prep cache, and pooled scratch. Shared by pointer across every
	// solver copied from the same template (snapshot sharers, pool workers),
	// so the caches warm corpus-wide. Options that change the cached
	// pipeline's inputs (sentiment analyzer, word model) install a fresh one.
	fe *frontend
}

// catalogAPI pairs a framework API with, for permission-protected APIs, the
// nouns of the protecting permission's description and their phrase
// embedding (hoisted out of the Algorithm 1 inner loop — the seed
// recomputed them per phrase×entry). The API's describing-phrase
// embeddings live in the catalogTable matrix.
type catalogAPI struct {
	api       sdk.API
	permNouns []string
	permVec   wordvec.Vector
}

// catalogTable is the full-catalog scan structure: the per-API entries plus
// every describing-phrase vector flattened into one contiguous matrix.
// rowStart[i]..rowStart[i+1] are entry i's rows, so the kernel scan walks a
// dense block while Algorithm 1 still stops at each entry's first hit.
type catalogTable struct {
	entries  []catalogAPI
	matrix   *wordvec.Matrix
	rowStart []int32
}

// catalogVecs returns the full-catalog phrase table: the shared snapshot's
// precomputed copy when attached, a lazily built private one otherwise.
func (s *Solver) catalogVecs() *catalogTable {
	if s.snap != nil {
		return s.snap.catalogVecs
	}
	if s.catalogVecCache == nil {
		s.catalogVecCache = s.buildCatalogVecs()
	}
	return s.catalogVecCache
}

// buildCatalogVecs embeds the describing phrases of every documented API
// into the per-entry table and the flattened scan matrix.
func (s *Solver) buildCatalogVecs() *catalogTable {
	apis := s.catalog.APIs()
	t := &catalogTable{
		entries:  make([]catalogAPI, 0, len(apis)),
		matrix:   wordvec.NewMatrix(2 * len(apis)),
		rowStart: make([]int32, 1, len(apis)+1),
	}
	for _, api := range apis {
		entry := catalogAPI{api: api}
		for _, phrase := range apiPhrases(api) {
			t.matrix.Append(s.vec.PhraseVector(phrase))
		}
		if api.Permission != "" {
			entry.permNouns = permissionNouns(s, api.Permission)
			if len(entry.permNouns) > 0 {
				entry.permVec = s.vec.PhraseVector(entry.permNouns)
			}
		}
		t.entries = append(t.entries, entry)
		t.rowStart = append(t.rowStart, int32(t.matrix.Rows()))
	}
	t.matrix.Finish()
	return t
}

// Option configures a Solver.
type Option func(*Solver)

// WithClassifier installs a trained function-error review classifier.
// Without one, every review is treated as a function-error review.
func WithClassifier(v *textclass.Vectorizer, c textclass.Classifier) Option {
	return func(s *Solver) {
		s.vectorizer, s.classifier = v, c
	}
}

// WithSummarizer installs a trained Code2vec model for method
// summarization (§3.3.2).
func WithSummarizer(m *code2vec.Model) Option {
	return func(s *Solver) { s.summarizer = m }
}

// WithWordModel overrides the word-embedding model (ablations use it to
// compare semantic matching against near-exact thresholds). Installing a
// different model detaches the solver from any shared Snapshot, whose
// precomputed embeddings would no longer be valid.
func WithWordModel(m *wordvec.Model) Option {
	return func(s *Solver) {
		s.vec = m
		s.catalogVecCache = nil
		s.fe = newFrontend() // cached phrase vectors depend on the model
		if s.snap != nil {
			s.snap = nil
			s.staticCache = make(map[*apk.Release]*StaticInfo)
		}
	}
}

// WithChangeAwareRank ranks candidate classes that changed between the
// review's app version and its predecessor ahead of unchanged candidates.
// The intuition follows §4.1.6 (update reviews blame updated code): a
// function-error review published right after a release most likely
// describes a regression in the code that release touched. Localization
// (which classes are candidates at all) is unaffected; only the §4.3
// ordering changes, with the changed-first key applied before importance.
// Reviews with no predecessor release rank exactly as without the option.
func WithChangeAwareRank() Option {
	return func(s *Solver) { s.changeAware = true }
}

// WithObserver installs a telemetry recorder. The pipeline then emits
// stage spans (with durations feeding the latency histograms and the
// structured span log), prescreen counters, and the match-similarity
// histogram. Observation never changes localization output.
func WithObserver(rec *obs.Recorder) Option {
	return func(s *Solver) { s.rec = rec }
}

// WithAppLabel tags this solver's pipeline metrics with an app identity:
// alongside the aggregate counters (reviews_total, …) it bumps labeled
// children (reviews_total{app="…"}, …) in the recorder's registry, so a
// multi-app daemon serving many solvers over one registry gets a per-app
// breakdown. No-op without an observer; labeling never changes
// localization output.
func WithAppLabel(app string) Option {
	return func(s *Solver) { s.appLabel = app }
}

// WithSentimentAnalyzer overrides the sentence sentiment analyzer
// (SentiStrength by default, per Table 4).
func WithSentimentAnalyzer(a sentiment.Analyzer) Option {
	return func(s *Solver) {
		s.sentiment = a
		s.fe = newFrontend() // cached clause outcomes depend on the analyzer
	}
}

// New constructs a Solver. The default configuration has no classifier
// (callers decide which reviews to localize), uses SentiStrength-style
// sentiment, and builds the Q&A index over the generated corpus.
func New(opts ...Option) *Solver {
	catalog := sdk.NewCatalog()
	s := &Solver{
		catalog:     catalog,
		vec:         wordvec.NewModel(),
		tagger:      pos.NewTagger(),
		extractor:   phrase.NewExtractor(),
		normalizer:  textproc.NewNormalizer(),
		sentiment:   sentiment.SentiStrength{},
		qaIndex:     qa.NewIndex(catalog, qa.GenerateCorpus(catalog)),
		staticCache: make(map[*apk.Release]*StaticInfo),
	}
	for _, opt := range opts {
		opt(s)
	}
	if s.fe == nil {
		s.fe = newFrontend()
	}
	// Annotate parsed tokens with dense vocabulary IDs so tagging and
	// stopword tests index flat arrays instead of re-hashing words.
	s.extractor.UseInterner(s.fe.in)
	s.tagger.UseInterner(s.fe.in)
	return s
}

// IsErrorReview runs the trained classifier on a review (§3.2.2). With no
// classifier installed it returns true.
func (s *Solver) IsErrorReview(text string) bool {
	if s.classifier == nil || s.vectorizer == nil {
		return true
	}
	return s.classifier.Predict(s.vectorizer.Transform(text))
}

// StaticFor returns the (cached) §3.3 extraction for a release. Snapshot-
// backed solvers read through the shared concurrency-safe snapshot cache;
// standalone solvers keep a private map (not safe for concurrent
// use — share work through a Snapshot instead).
func (s *Solver) StaticFor(r *apk.Release) *StaticInfo {
	if s.snap != nil {
		return s.snap.StaticFor(r)
	}
	if info, ok := s.staticCache[r]; ok {
		return info
	}
	info := s.ExtractStatic(r)
	s.staticCache[r] = info
	return info
}

// Result is the outcome of localizing one review.
type Result struct {
	// IsError reports the classifier's decision.
	IsError bool
	// Analysis is the review-analysis output (§3.2).
	Analysis *ReviewAnalysis
	// Mappings are all (phrase → class) correlations found (§4.1–4.2).
	Mappings []Mapping
	// Ranked are the recommended classes, most important first (§4.3),
	// capped at TopN.
	Ranked []RankedClass
	// Release is the APK version the review was matched against.
	Release *apk.Release
}

// Localized reports whether the review was mapped to at least one class.
func (r *Result) Localized() bool { return len(r.Mappings) > 0 }

// RankedClassNames lists the recommended class names in rank order.
func (r *Result) RankedClassNames() []string {
	out := make([]string, len(r.Ranked))
	for i, rc := range r.Ranked {
		out[i] = rc.Class
	}
	return out
}

// LocalizeReview runs the full ReviewSolver pipeline on one review: pick
// the APK version released before the review (§3.3.1), identify whether it
// is a function-error review (§3.2.2), analyze its sentences (§3.2.3–4),
// run every applicable localizer (§4.1–4.2), and rank the classes (§4.3).
func (s *Solver) LocalizeReview(app *apk.App, text string, publishedAt time.Time) *Result {
	return s.localizeReview(app, text, publishedAt, nil)
}

// LocalizeReviewTraced is LocalizeReview plus an explain trace: a
// deterministic per-review record of every phrase → candidate correlation
// (with its information source and similarity), every kernel prescreen
// scan, and the stage walk. The trace carries no wall-clock fields, so for
// a fixed corpus and review its JSON encoding is byte-identical across
// runs and worker counts.
func (s *Solver) LocalizeReviewTraced(app *apk.App, text string, publishedAt time.Time) (*Result, *obs.ReviewTrace) {
	tr := obs.NewReviewTrace(text)
	res := s.localizeReview(app, text, publishedAt, tr)
	return res, tr
}

// localizeReview is the shared pipeline body. tr may be nil (no explain
// trace); s.rec may be nil (no metrics/spans). Both off is the default and
// costs only nil checks.
func (s *Solver) localizeReview(app *apk.App, text string, publishedAt time.Time, tr *obs.ReviewTrace) *Result {
	root := s.rec.Start(stageReview)
	s.rec.Counter(metricReviews).Add(1)
	s.notePerApp(metricReviews, 1)

	cs := root.Child(stageClassify)
	res := &Result{IsError: s.IsErrorReview(text)}
	cs.End()
	tr.AddStage(stageClassify, stageReview, 0)
	if tr != nil {
		tr.IsError = res.IsError
	}
	if !res.IsError {
		root.End()
		return res
	}
	s.rec.Counter(metricErrorReviews).Add(1)
	s.notePerApp(metricErrorReviews, 1)

	current, previous, ok := app.ReleaseBefore(publishedAt)
	if !ok {
		// No release predates the review; fall back to the earliest.
		if len(app.Releases) == 0 {
			root.End()
			return res
		}
		current, previous = app.Releases[0], nil
	}
	res.Release = current
	if tr != nil {
		tr.Release = current.Version
	}
	ss := root.Child(stageStatic)
	info := s.StaticFor(current)
	ss.End()
	tr.AddStage(stageStatic, stageReview, 0)

	as := root.Child(stageAnalyze)
	res.Analysis = s.AnalyzeReview(text)
	as.End()
	tr.AddStage(stageAnalyze, stageReview, 0)

	res.Mappings = s.localize(res.Analysis, info, previous, current, tr, root)
	tr.AddStage(stageLocalize, stageReview, len(res.Mappings))

	rs := root.Child(stageRank)
	var changed []string
	if s.changeAware && previous != nil {
		changed = apk.DiffReleases(previous, current)
	}
	res.Ranked = rankClasses(res.Mappings, info.Graph, TopN, changed)
	rs.End()
	tr.AddStage(stageRank, stageReview, 0)

	if res.Localized() {
		s.rec.Counter(metricLocalizedReviews).Add(1)
		s.notePerApp(metricLocalizedReviews, 1)
	}
	s.rec.Counter(metricMappings).Add(int64(len(res.Mappings)))
	s.notePerApp(metricMappings, int64(len(res.Mappings)))
	if tr != nil {
		for i, rc := range res.Ranked {
			tr.Ranked = append(tr.Ranked, obs.RankedTrace{
				Rank:         i + 1,
				Class:        rc.Class,
				Importance:   rc.Importance,
				Dependencies: rc.Dependencies,
				Matches:      tr.MatchesFor(rc.Class),
			})
		}
	}
	root.End()
	return res
}
