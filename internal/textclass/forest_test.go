package textclass_test

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"reviewsolver/internal/synth"
	"reviewsolver/internal/textclass"
)

// productionModel is the classifier reviewd and perfbench train: production
// BoostedTrees on synth.TrainingCorpus(1), trained once per test process.
var productionModel = sync.OnceValues(func() (*textclass.Vectorizer, *textclass.BoostedTrees) {
	vec, c := textclass.TrainOn(synth.TrainingCorpus(1),
		func() textclass.Classifier { return textclass.NewBoostedTrees() })
	return vec, c.(*textclass.BoostedTrees)
})

// foldTrainSets returns the training vectors of the given folds exactly as
// CrossValidate(k, docs, ·, seed) forms and vectorizes them, by recording
// what each fold's classifier is fitted on.
func foldTrainSets(k int, docs []textclass.Document, seed int64, folds ...int) map[int]*fitRecorder {
	want := make(map[int]*fitRecorder)
	for _, f := range folds {
		want[f] = nil
	}
	fold := 0
	textclass.CrossValidate(k, docs, func() textclass.Classifier {
		r := &fitRecorder{}
		if _, ok := want[fold]; ok {
			want[fold] = r
		}
		fold++
		return r
	}, seed)
	return want
}

// fitRecorder is a Classifier that keeps what it is fitted on.
type fitRecorder struct {
	xs []textclass.FeatureVector
	ys []bool
}

func (r *fitRecorder) Fit(xs []textclass.FeatureVector, ys []bool) { r.xs, r.ys = xs, ys }
func (r *fitRecorder) Predict(textclass.FeatureVector) bool        { return false }
func (r *fitRecorder) Name() string                                { return "recorder" }

// edgeRows builds n hand-made rows over a small feature range, with negative
// and zero values beside positive ones, exact duplicate rows, and labels
// tied to a few features so that trees grow past the root.
func edgeRows(n int, seed int64) ([]textclass.FeatureVector, []bool) {
	rng := rand.New(rand.NewSource(seed))
	values := []float64{-0.4, 0, 0, 0.1, 0.3, 0.8}
	xs := make([]textclass.FeatureVector, n)
	ys := make([]bool, n)
	for i := range xs {
		if i%7 == 6 {
			xs[i], ys[i] = xs[i-1], ys[i-1]
			continue
		}
		x := map[int]float64{}
		for k := 0; k < 6; k++ {
			x[rng.Intn(24)] = values[rng.Intn(len(values))]
		}
		xs[i] = vectorOf(x)
		ys[i] = x[3] > 0 || (x[5] > 0 && x[7] <= 0) || rng.Intn(10) == 0
	}
	return xs, ys
}

// vectorOf lists a feature map as a FeatureVector, sorted by id.
func vectorOf(m map[int]float64) textclass.FeatureVector {
	x := make(textclass.FeatureVector, 0, len(m))
	for id, w := range m {
		x = append(x, textclass.Feature{ID: id, Weight: w})
	}
	slices.SortFunc(x, func(a, b textclass.Feature) int { return cmp.Compare(a.ID, b.ID) })
	return x
}

// vectorDiff describes the first difference between two feature vectors,
// weights compared to the bit, or returns "".
func vectorDiff(got, want textclass.FeatureVector) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d features, want %d: %v, want %v", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Weight) != math.Float64bits(want[i].Weight) {
			return fmt.Sprintf("feature %d is %+v, want %+v", i, got[i], want[i])
		}
	}
	return ""
}

// idfZeroDocs is a small corpus in which "app" is in every document, so its
// feature has IDF 0: present in every vector with value 0.
func idfZeroDocs() []textclass.Document {
	subjects := []string{"sync", "login", "upload", "search", "backup", "player", "map", "inbox"}
	var docs []textclass.Document
	for i := 0; i < 48; i++ {
		s := subjects[i%len(subjects)]
		if i%3 == 0 {
			docs = append(docs, textclass.Document{Text: fmt.Sprintf("the app %s crashes every time", s), Label: true})
		} else if i%3 == 1 {
			docs = append(docs, textclass.Document{Text: fmt.Sprintf("app %s fails with an error", s), Label: true})
		} else {
			docs = append(docs, textclass.Document{Text: fmt.Sprintf("love this app, %s is great", s), Label: false})
		}
	}
	return docs
}

func checkOracle(t *testing.T, c textclass.Classifier, xs []textclass.FeatureVector, ys []bool) {
	t.Helper()
	c.Fit(xs, ys)
	if d := textclass.OracleDiff(c, xs, ys); d != "" {
		t.Errorf("%s differs from the reference trainer: %s", c.Name(), d)
	}
}

// TestTreesMatchOracle checks that the column-indexed trainers grow, tree
// for tree and node for node, what the map-probing reference trainers grow,
// and that the compiled forest scores every training row to the same bits.
func TestTreesMatchOracle(t *testing.T) {
	boosted25 := func() textclass.Classifier { return textclass.NewBoostedTreesSized(25) }
	forest := func() textclass.Classifier { return textclass.NewRandomForest() }
	both := []textclass.Factory{boosted25, forest}

	t.Run("production", func(t *testing.T) {
		t.Parallel()
		vec, bt := productionModel()
		xs, ys := vec.TransformAll(synth.TrainingCorpus(1))
		if d := textclass.OracleDiff(bt, xs, ys); d != "" {
			t.Errorf("production model differs from the reference trainer: %s", d)
		}
	})
	for _, seed := range []int64{2, 3} {
		t.Run(fmt.Sprintf("corpus%d", seed), func(t *testing.T) {
			t.Parallel()
			docs := synth.TrainingCorpus(seed)
			vec := textclass.NewVectorizer()
			vec.Fit(docs)
			xs, ys := vec.TransformAll(docs)
			for _, f := range both {
				checkOracle(t, f(), xs, ys)
			}
		})
	}
	t.Run("folds", func(t *testing.T) {
		t.Parallel()
		sets := foldTrainSets(10, synth.TrainingCorpus(1), 1, 0, 4, 9)
		for _, fold := range []int{0, 4, 9} {
			r := sets[fold]
			if r == nil || len(r.xs) == 0 {
				t.Fatalf("fold %d: no training set recorded", fold)
			}
			for _, f := range both {
				checkOracle(t, f(), r.xs, r.ys)
			}
		}
	})
	t.Run("idf0", func(t *testing.T) {
		t.Parallel()
		docs := idfZeroDocs()
		vec := textclass.NewVectorizer()
		vec.Fit(docs)
		xs, ys := vec.TransformAll(docs)
		zero := 0
		for _, x := range xs {
			for _, ft := range x {
				if ft.Weight == 0 {
					zero++
					break
				}
			}
		}
		if zero != len(xs) {
			t.Fatalf("%d of %d vectors hold a zero-valued feature, want all", zero, len(xs))
		}
		for _, f := range both {
			checkOracle(t, f(), xs, ys)
		}
	})
	for _, n := range []int{63, 64, 65} {
		t.Run(fmt.Sprintf("rows%d", n), func(t *testing.T) {
			t.Parallel()
			xs, ys := edgeRows(n, int64(n))
			for _, f := range both {
				checkOracle(t, f(), xs, ys)
			}
		})
	}
	t.Run("duplicates", func(t *testing.T) {
		t.Parallel()
		// Few distinct rows, each repeated: bootstrap samples draw the
		// same row many times.
		base, labels := edgeRows(12, 5)
		var xs []textclass.FeatureVector
		var ys []bool
		for r := 0; r < 6; r++ {
			xs = append(xs, base...)
			ys = append(ys, labels...)
		}
		for _, f := range both {
			checkOracle(t, f(), xs, ys)
		}
	})
}

// TestClassifyMatchesOracle: on the training corpus and on every review of
// the seed-1 Table 6 apps, Transform, which parses only the sentences
// holding an error word, gives the features of the parse-every-sentence
// reference to the bit, with and without negation filtering, and the
// production model, which walks only the trees a review reaches, scores
// each review as the walk of every tree does, to the bit.
func TestClassifyMatchesOracle(t *testing.T) {
	docs := synth.TrainingCorpus(1)
	texts := make([]string, 0, len(docs)+7570)
	for _, d := range docs {
		texts = append(texts, d.Text)
	}
	for _, app := range synth.GenerateTable6(1) {
		for _, r := range app.Reviews {
			texts = append(texts, r.Text)
		}
	}
	prod, bt := productionModel()
	plain := textclass.NewVectorizer(textclass.WithoutNegationFiltering())
	plain.Fit(docs)
	for name, vec := range map[string]*textclass.Vectorizer{"negation-aware": prod, "plain": plain} {
		for i, text := range texts {
			if d := vectorDiff(vec.Transform(text), vec.OracleTransform(text)); d != "" {
				t.Fatalf("%s, text %d %q: %s", name, i, text, d)
			}
		}
	}
	oracle := textclass.NewOracleWalk(bt)
	for i, text := range texts {
		x := prod.Transform(text)
		if got, want := bt.Score(x), oracle.Score(x); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("text %d %q: score %v, walk of every tree %v", i, text, got, want)
		}
	}
}

// TestPredictConcurrent scores one shared model from several goroutines, as
// reviewd's handlers and pool workers do, and requires the sequential
// results.
func TestPredictConcurrent(t *testing.T) {
	vec, bt := productionModel()
	docs := synth.TrainingCorpus(7)
	want := make([]float64, len(docs))
	for i, d := range docs {
		want[i] = bt.Score(vec.Transform(d.Text))
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(docs)+w; i++ {
				j := i % len(docs)
				x := vec.Transform(docs[j].Text)
				got := bt.Score(x)
				if math.Float64bits(got) != math.Float64bits(want[j]) {
					t.Errorf("worker %d, doc %d: score %v, sequential %v", w, j, got, want[j])
					return
				}
				if bt.Predict(x) != (want[j] >= 0.5) {
					t.Errorf("worker %d, doc %d: Predict disagrees with score %v", w, j, want[j])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// FuzzClassify passes arbitrary bytes through the production vectorizer and
// classifier: Transform must give the features of the parse-every-sentence
// oracle, the compiled forest's score must equal the reference pointer-tree
// walk to the bit, Predict must agree with it, and nothing may panic.
func FuzzClassify(f *testing.F) {
	for _, s := range []string{
		"",
		"the app keeps crashing when i upload photos",
		"great app, sync contacts works perfectly",
		"no bugs, never crashes. not a single error!",
		"!!! ??? ...",
		strings.Repeat("cannot login ", 40),
		"\x00\xff\xfe crash érror",
	} {
		f.Add([]byte(s))
	}
	vec, bt := productionModel()
	oracle := textclass.NewOracleWalk(bt)
	f.Fuzz(func(t *testing.T, data []byte) {
		x := vec.Transform(string(data))
		if d := vectorDiff(x, vec.OracleTransform(string(data))); d != "" {
			t.Fatalf("Transform differs from the parse-every-sentence oracle: %s", d)
		}
		got, want := bt.Score(x), oracle.Score(x)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Score %v (%#x), oracle walk %v (%#x)", got, math.Float64bits(got), want, math.Float64bits(want))
		}
		if bt.Predict(x) != (want >= 0.5) {
			t.Fatalf("Predict %v, oracle score %v", bt.Predict(x), want)
		}
	})
}
