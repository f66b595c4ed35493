package core

import (
	"sync"

	"reviewsolver/internal/memo"
	"reviewsolver/internal/phrase"
	"reviewsolver/internal/sentiment"
	"reviewsolver/internal/textproc"
	"reviewsolver/internal/wordvec"
)

// This file is the NLP front-end engine: a corpus-level cache of the
// per-sentence analysis pipeline (sentiment split, intent filter,
// normalization, parse, extraction, pattern match) and of the per-phrase
// embedding preparation that every localizer repeats. Review corpora are
// heavily repetitive — the same complaints, the same verb phrases — so the
// steady state of a batch run is cache hits plus pooled scratch, with the
// expensive parse/embedding work paid once per distinct sentence or phrase.

// clauseOutcome is the cached fate of one adversative clause of a sentence:
// dropped as positive, dropped by the intent filter, or kept with its
// normalized text, extracted phrases (with their pre-rendered String() keys),
// and vague-error pattern matches. All fields are read-only once cached.
type clauseOutcome struct {
	positive   bool
	filtered   bool
	normalized string
	vps        []phrase.VerbPhrase
	vpKeys     []string
	nps        []phrase.NounPhrase
	npKeys     []string
	patterns   []phrase.PatternMatch
}

// sentenceEntry is the cached analysis of one raw sentence (as produced by
// SplitSentences, i.e. already ASCII-stripped and trimmed).
type sentenceEntry struct {
	clauses []clauseOutcome
}

// phrasePrep is the cached embedding preparation of one verb phrase: the
// derived word forms and every vector/query the localizers need. PrepareQuery
// depends only on the global anchor basis, not on per-model state, so the
// queries are cacheable alongside the vectors.
type phrasePrep struct {
	text     string
	words    []string
	q        wordvec.Query // the phrase vector, prepared for scans
	hasObj   bool
	objVec   wordvec.Vector
	contentQ wordvec.Query // the content-word vector, prepared for scans
}

// analysisScratch holds the per-review dedup sets AnalyzeReview reuses
// across calls via the frontend pool.
type analysisScratch struct {
	seenVP map[string]struct{}
	seenNP map[string]struct{}
}

// frontend bundles the interner, the analysis caches, and the pooled
// scratch. One frontend is shared by every solver copied from the same
// template (snapshot-backed solvers and pool workers), so the caches are
// corpus-level: any worker's parse warms every other worker.
type frontend struct {
	in        *textproc.Interner
	sentences *memo.Cache[*sentenceEntry]
	preps     *memo.Cache[*phrasePrep]
	// exceptionWords holds the identifier words of an exception type name
	// other than "exception", keyed by the name. Its keys come from the
	// catalog and the app IR, not from review text.
	exceptionWords *memo.Cache[[]string]
	scratch        sync.Pool // *analysisScratch
}

func newFrontend() *frontend {
	fe := &frontend{
		in:             defaultInterner(),
		sentences:      memo.New[*sentenceEntry](),
		preps:          memo.New[*phrasePrep](),
		exceptionWords: memo.New[[]string](),
	}
	fe.scratch.New = func() any {
		return &analysisScratch{
			seenVP: make(map[string]struct{}, 16),
			seenNP: make(map[string]struct{}, 16),
		}
	}
	return fe
}

// sentence returns the cached analysis of one sentence, computing and
// inserting it on a miss. Exactly one hit-or-miss counter increment happens
// per lookup; a miss is counted only when this call created the cache entry,
// so misses equal distinct sentences and hits equal lookups minus distinct
// sentences — deterministic at any worker count (absent eviction, which the
// cap sizing rules out for seeded corpora).
func (fe *frontend) sentence(s *Solver, sent string) *sentenceEntry {
	if e, ok := fe.sentences.Get(sent); ok {
		s.rec.Counter(metricAnalysisCacheHits).Add(1)
		return e
	}
	e, created := fe.sentences.Put(sent, s.computeSentence(sent))
	if created {
		s.rec.Counter(metricAnalysisCacheMisses).Add(1)
	} else {
		s.rec.Counter(metricAnalysisCacheHits).Add(1)
	}
	return e
}

// computeSentence runs the uncached §3.2 per-sentence pipeline: adversative
// split, sentiment filter, intent filter, normalization, parse, phrase
// extraction, and vague-error pattern matching.
func (s *Solver) computeSentence(sent string) *sentenceEntry {
	e := &sentenceEntry{}
	for _, clause := range sentiment.SplitAdversative(sent) {
		var co clauseOutcome
		switch {
		case s.sentiment.Classify(clause) == sentiment.Positive:
			co.positive = true
		case phrase.ClassifyIntent(clause).ShouldFilter():
			co.filtered = true
		default:
			co.normalized = s.normalizer.NormalizeSentence(clause)
			p := s.extractor.Parse(co.normalized)
			ex := s.extractor.Extract(p)
			co.vps = ex.VerbPhrases
			co.nps = ex.NounPhrases
			if len(ex.VerbPhrases) > 0 {
				co.vpKeys = make([]string, len(ex.VerbPhrases))
				for i, vp := range ex.VerbPhrases {
					co.vpKeys[i] = vp.String()
				}
			}
			if len(ex.NounPhrases) > 0 {
				co.npKeys = make([]string, len(ex.NounPhrases))
				for i, np := range ex.NounPhrases {
					co.npKeys[i] = np.String()
				}
			}
			co.patterns = phrase.MatchPatterns(p)
		}
		e.clauses = append(e.clauses, co)
	}
	return e
}

// prep returns the cached embedding preparation for a verb phrase, keyed by
// its rendered text. Counter discipline matches sentence().
func (fe *frontend) prep(s *Solver, key string, vp phrase.VerbPhrase) *phrasePrep {
	if p, ok := fe.preps.Get(key); ok {
		s.rec.Counter(metricPhraseCacheHits).Add(1)
		return p
	}
	words := vp.Words()
	p := &phrasePrep{
		text:  key,
		words: words,
		q:     wordvec.PrepareQuery(s.vec.PhraseVector(words)),
	}
	if len(vp.Object) > 0 {
		p.hasObj = true
		p.objVec = s.vec.PhraseVector(vp.Object)
	}
	p.contentQ = wordvec.PrepareQuery(s.vec.PhraseVector(contentOnly(words)))
	p, created := fe.preps.Put(key, p)
	if created {
		s.rec.Counter(metricPhraseCacheMisses).Add(1)
	} else {
		s.rec.Counter(metricPhraseCacheHits).Add(1)
	}
	return p
}

// publishFrontendGauges sets the front-end size gauges. Gauges are set only
// from single-goroutine points (after a batch drains, or from a sequential
// caller) — a per-review Set under the pool could publish a stale value last.
func (s *Solver) publishFrontendGauges() {
	if s.rec == nil || s.fe == nil {
		return
	}
	s.rec.Gauge(metricInternerSize).Set(int64(s.fe.in.Size()))
	s.rec.Gauge(metricAnalysisCacheSize).Set(int64(s.fe.sentences.Len()))
	s.rec.Gauge(metricSpellMemoSize).Set(int64(s.normalizer.MemoSize()))
}
