package synth

import (
	"fmt"
	"math/rand"
	"strings"

	"reviewsolver/internal/ctxinfo"
	"reviewsolver/internal/textclass"
)

// GenerateTable6 generates the 18 evaluation apps (Table 6) with their
// review corpora and ground-truth documents.
func GenerateTable6(seed int64) []*AppData {
	out := make([]*AppData, len(table6Apps))
	for i, spec := range table6Apps {
		out[i] = GenerateApp(spec, seed+int64(i)*7919)
	}
	return out
}

// GenerateTable14 generates the 10 additional apps of the overfitting
// check (Table 14).
func GenerateTable14(seed int64) []*AppData {
	out := make([]*AppData, len(table14Apps))
	for i, spec := range table14Apps {
		out[i] = GenerateApp(spec, seed+100000+int64(i)*104729)
	}
	return out
}

// trickyNegative generates praise that *mentions* bugs/crashes without
// reporting one — the false positives the paper analyzes in §5.2 ("the
// objects that user really wanted to describe are some fixed bugs ... or
// bugs of other apps"). The texts are combinatorial, so a classifier can
// only separate them from real complaints through word interactions
// ("crash … fixed"), not by memorizing strings.
func trickyNegative(rng *rand.Rand) string {
	symptom := pickStr(rng, "crash", "bug", "error", "freeze", "glitch", "problem")
	origin := pickStr(rng, "from the last version", "from march", "i reported",
		"on the old release", "everyone complained about", "with attachments")
	resolution := pickStr(rng, "has been fixed", "is gone now", "got resolved quickly",
		"was solved within days", "disappeared after the update", "never came back")
	praise := pickStr(rng, "thank you!", "great job devs.", "love it.",
		"works perfectly now.", "five stars.", "really impressed.")
	switch rng.Intn(4) {
	case 0:
		return fmt.Sprintf("The %s %s %s, %s", symptom, origin, resolution, praise)
	case 1:
		return fmt.Sprintf("No more %ss after the update, %s", symptom, praise)
	case 2:
		return fmt.Sprintf("This app helped me find why my other apps had a %s, %s", symptom, praise)
	default:
		return fmt.Sprintf("Used to have a %s %s but it %s, %s", symptom, origin, resolution, praise)
	}
}

func pickStr(rng *rand.Rand, opts ...string) string {
	return opts[rng.Intn(len(opts))]
}

// TrainingCorpus builds the balanced classifier training set of §3.2.2:
// 700 function-error reviews and 700 other reviews. A slice of each side is
// deliberately hard — implicit error descriptions among the positives,
// bug-vocabulary praise among the negatives — so the classifier comparison
// reproduces the Table 2 spread instead of saturating.
func TrainingCorpus(seed int64) []textclass.Document {
	rng := rand.New(rand.NewSource(seed))
	feats := allFeatures()
	docs := make([]textclass.Document, 0, 1400)
	for i := 0; i < 700; i++ {
		var text string
		if i%10 == 0 {
			text = borderline(rng)
		} else {
			f := feats[rng.Intn(len(feats))]
			text = errorReviewText(pickContext(f, rng), f, rng)
		}
		docs = append(docs, textclass.Document{Text: text, Label: true})
	}
	for i := 0; i < 700; i++ {
		var text string
		switch {
		case i%7 == 0:
			text = borderline(rng)
		case i%4 == 0:
			text = trickyNegative(rng)
		default:
			text = nonErrorReviewText(feats, rng)
		}
		docs = append(docs, textclass.Document{Text: text, Label: false})
	}
	return docs
}

// allFeatures flattens the feature library (common + all domains).
func allFeatures() []feature {
	feats := append([]feature(nil), commonFeatures...)
	for _, domain := range []string{"mail", "messaging", "social", "reader", "media", "maps", "games", "tools"} {
		feats = append(feats, featureLibrary[domain]...)
	}
	return feats
}

// CiurumeleaDataset reproduces the shape of the labeled dataset of
// Ciurumelea et al. used in Table 7: 199 reviews, 87 of them function-error
// related. Its reviews are mostly explicit, so precision and recall are
// both high.
func CiurumeleaDataset(seed int64) []textclass.Document {
	rng := rand.New(rand.NewSource(seed))
	feats := allFeatures()
	docs := make([]textclass.Document, 0, 199)
	for i := 0; i < 87; i++ {
		var text string
		if i%8 == 0 {
			// A few implicitly phrased errors the training set never saw.
			text = implicitError(rng)
		} else {
			f := feats[rng.Intn(len(feats))]
			text = errorReviewText(pickContext(f, rng), f, rng)
		}
		docs = append(docs, textclass.Document{Text: text, Label: true})
	}
	for i := 0; i < 112; i++ {
		var text string
		if i%8 == 0 {
			text = trickyNegative(rng)
		} else {
			text = nonErrorReviewText(feats, rng)
		}
		docs = append(docs, textclass.Document{Text: text, Label: false})
	}
	shuffle(docs, rng)
	return docs
}

// implicitErrorTemplates describe errors without error vocabulary — the
// reviews the paper's classifier misses (§5.2 false negatives), which is
// what depresses recall on the Maalej dataset.
var implicitErrorTemplates = []string{
	"Slow on tablets. In need of a major update. Images not as crisp as on other viewers.",
	"It is hard to load anything lately.",
	"The screen just stays black when i come back to it.",
	"Everything takes forever since last week.",
	"My battery drains twice as fast with this installed.",
	"Half of my library simply vanished.",
	"The text looks garbled on my device.",
	"It eats all my storage within days.",
	"I had to restart my phone twice today because of this.",
	"Scrolling feels like wading through mud now.",
}

// borderline generates reviews human annotators genuinely disagree on —
// occasional hiccups that may or may not be function errors. The training
// corpus labels them positive 42% of the time, mirroring annotator
// disagreement; this irreducible ambiguity is what spreads the Table 2
// classifiers apart (threshold-biased learners like naive Bayes and MaxEnt
// call them all errors, gaining recall and losing precision).
func borderline(rng *rand.Rand) string {
	glitch := pickStr(rng, "doesn't refresh right away", "arrives late",
		"needs a second tap", "takes a retry", "logged me out once",
		"skipped a beat", "flickers briefly", "loses my place")
	thing := pickStr(rng, "the widget", "a notification", "the sync",
		"the feed", "the playlist", "the download", "the login", "the search")
	when := pickStr(rng, "sometimes", "once in a while", "occasionally",
		"every now and then", "on rare occasions")
	tail := pickStr(rng, "but it's fine otherwise.", "not a big deal.",
		"still usable though.", "might just be my phone.", "anyone else?", "")
	return fmt.Sprintf("%s %s %s %s", strings.ToUpper(when[:1])+when[1:], thing, glitch, tail)
}

// implicitError generates an implicit error description combinatorially.
func implicitError(rng *rand.Rand) string {
	if rng.Intn(3) == 0 {
		return implicitErrorTemplates[rng.Intn(len(implicitErrorTemplates))]
	}
	subject := pickStr(rng, "the screen", "scrolling", "my library", "the text",
		"everything", "the whole thing", "loading", "startup")
	symptom := pickStr(rng, "takes forever", "just stays black", "feels like wading through mud",
		"vanished overnight", "looks garbled", "eats all my storage",
		"drains the battery twice as fast", "is hard to load lately")
	coda := pickStr(rng, "on my tablet.", "since last week.", "on this device.",
		"no matter what i do.", "after the newest release.", "")
	return fmt.Sprintf("%s %s %s", strings.ToUpper(subject[:1])+subject[1:], symptom, coda)
}

// MaalejDataset reproduces the shape of the Maalej et al. dataset of
// Table 7: 747 reviews, 369 function-error related, half of which
// describe the error implicitly (no "crash"/"bug"/"error" vocabulary), so
// recall drops to the paper's ~66% while precision stays high.
func MaalejDataset(seed int64) []textclass.Document {
	rng := rand.New(rand.NewSource(seed))
	feats := allFeatures()
	docs := make([]textclass.Document, 0, 747)
	for i := 0; i < 369; i++ {
		var text string
		if i%2 == 0 {
			text = implicitErrorTemplates[rng.Intn(len(implicitErrorTemplates))]
		} else {
			f := feats[rng.Intn(len(feats))]
			text = errorReviewText(pickContext(f, rng), f, rng)
		}
		docs = append(docs, textclass.Document{Text: text, Label: true})
	}
	for i := 0; i < 378; i++ {
		docs = append(docs, textclass.Document{
			Text:  nonErrorReviewText(feats, rng),
			Label: false,
		})
	}
	shuffle(docs, rng)
	return docs
}

func shuffle(docs []textclass.Document, rng *rand.Rand) {
	rng.Shuffle(len(docs), func(i, j int) { docs[i], docs[j] = docs[j], docs[i] })
}

// ScoredReview pairs a review text with its star score and truth label,
// for the Table 3 / Table 4 experiments.
type ScoredReview struct {
	Text    string
	Score   int
	IsError bool
}

// scoreSampleShape is Table 3: reviews per score and error reviews per
// score in the manually-annotated 900-review sample.
var scoreSampleShape = []struct{ score, total, errors int }{
	{1, 150, 112},
	{2, 97, 64},
	{3, 118, 75},
	{4, 155, 64},
	{5, 380, 18},
}

// ScoreSample generates the 900-review sample of Table 3 with exactly the
// paper's per-score counts.
func ScoreSample(seed int64) []ScoredReview {
	rng := rand.New(rand.NewSource(seed))
	feats := allFeatures()
	var out []ScoredReview
	for _, row := range scoreSampleShape {
		for i := 0; i < row.total; i++ {
			r := ScoredReview{Score: row.score}
			if i < row.errors {
				f := feats[rng.Intn(len(feats))]
				r.IsError = true
				r.Text = errorReviewText(pickContext(f, rng), f, rng)
				if row.score >= 4 {
					// High-scoring error reviews praise first.
					r.Text = "Really like this app overall. " + r.Text
				}
			} else {
				r.Text = nonErrorReviewText(feats, rng)
			}
			out = append(out, r)
		}
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// ContextSample draws n function-error reviews (with at least four words)
// from the Table 6 corpora and returns their generator-truth context types
// — the Table 1 annotation study.
func ContextSample(apps []*AppData, n int, seed int64) []ctxinfo.Type {
	rng := rand.New(rand.NewSource(seed))
	var pool []ctxinfo.Type
	for _, app := range apps {
		for _, r := range app.ErrorReviews() {
			if countWords(r.Text) >= 4 {
				pool = append(pool, r.Context)
			}
		}
	}
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	if n > len(pool) {
		n = len(pool)
	}
	return pool[:n]
}

func countWords(s string) int {
	n := 0
	inWord := false
	for i := 0; i < len(s); i++ {
		isSpace := s[i] == ' '
		if !isSpace && !inWord {
			n++
		}
		inWord = !isSpace
	}
	return n
}

// PlainCorpus builds a classic template-only corpus (explicit error reviews
// vs plain praise, no tricky or borderline items). The negation ablation
// trains on it to isolate the feature-level effect of the §3.2.2 filter.
func PlainCorpus(seed int64, n int) []textclass.Document {
	rng := rand.New(rand.NewSource(seed))
	feats := allFeatures()
	docs := make([]textclass.Document, 0, n)
	for i := 0; i < n/2; i++ {
		f := feats[rng.Intn(len(feats))]
		docs = append(docs, textclass.Document{
			Text:  errorReviewText(pickContext(f, rng), f, rng),
			Label: true,
		})
	}
	for i := 0; i < n-n/2; i++ {
		docs = append(docs, textclass.Document{
			Text:  nonErrorReviewText(feats, rng),
			Label: false,
		})
	}
	return docs
}

// GenerateSample generates one representative app corpus (K-9 Mail) — a
// cheap fixture for benchmarks and demos.
func GenerateSample(seed int64) *AppData {
	return GenerateApp(table6Apps[4], seed)
}

// Summary prints a one-line description of an app corpus, for tooling.
func (d *AppData) Summary() string {
	return fmt.Sprintf("%s (%s): %d releases, %d classes, %d reviews (%d error), %d bug reports, %d release notes",
		d.Info.Name, d.Info.Package, len(d.App.Releases),
		len(d.App.Latest().Classes), len(d.Reviews), len(d.ErrorReviews()),
		len(d.BugReports), len(d.ReleaseNotes))
}
