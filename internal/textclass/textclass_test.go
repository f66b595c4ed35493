package textclass

import (
	"math/rand"
	"testing"
)

// corpus builds a deterministic labeled corpus of error and non-error
// reviews from templates with lexical variation.
func corpus(n int) []Document {
	errTemplates := []string{
		"the app keeps crashing when i open %s",
		"cannot %s anymore since the update",
		"it fails to %s every time",
		"%s does not work on my phone",
		"i get an error when i try to %s",
		"the app froze while i was trying to %s",
		"unable to %s, it just hangs",
		"%s button is broken",
		"crashes every time i %s",
		"the %s screen shows a blank page",
	}
	okTemplates := []string{
		"i love how easy it is to %s",
		"great app, %s works perfectly",
		"please add an option to %s",
		"the %s feature is beautiful",
		"best app for %s ever",
		"i use it daily to %s",
		"would be nice to %s in landscape",
		"thanks for the quick %s support",
		"the new %s design looks amazing",
		"five stars, %s is so smooth",
	}
	fills := []string{
		"sync contacts", "send messages", "upload photos", "download files",
		"login", "read articles", "play podcasts", "save drafts",
		"search routes", "register account", "backup sms", "browse feeds",
		"post comments", "track packages", "stream music", "export notes",
	}
	rng := rand.New(rand.NewSource(42))
	docs := make([]Document, 0, n)
	for i := 0; i < n; i++ {
		fill := fills[rng.Intn(len(fills))]
		if i%2 == 0 {
			t := errTemplates[rng.Intn(len(errTemplates))]
			docs = append(docs, Document{Text: sprintf1(t, fill), Label: true})
		} else {
			t := okTemplates[rng.Intn(len(okTemplates))]
			docs = append(docs, Document{Text: sprintf1(t, fill), Label: false})
		}
	}
	return docs
}

func sprintf1(template, fill string) string {
	out := ""
	for i := 0; i < len(template); i++ {
		if template[i] == '%' && i+1 < len(template) && template[i+1] == 's' {
			out += fill
			i++
			continue
		}
		out += string(template[i])
	}
	return out
}

func TestVectorizerFitTransform(t *testing.T) {
	docs := corpus(100)
	v := NewVectorizer()
	v.Fit(docs)
	if v.VocabSize() == 0 {
		t.Fatal("empty vocabulary")
	}
	x := v.Transform("the app keeps crashing")
	if len(x) == 0 {
		t.Fatal("empty feature vector for in-vocabulary text")
	}
	for _, ft := range x {
		if ft.Weight <= 0 {
			t.Errorf("feature %d has non-positive weight %f", ft.ID, ft.Weight)
		}
	}
}

// tokensOf is the effective token stream of a review (tokensInto), copied
// out of the pooled scratch.
func (v *Vectorizer) tokensOf(text string) []string {
	sc := transformScratchPool.Get().(*transformScratch)
	words := append([]string(nil), v.tokensInto(sc, text)...)
	sc.release()
	return words
}

func TestVectorizerNegationFiltering(t *testing.T) {
	docs := []Document{
		{Text: "the app contains bugs", Label: true},
		{Text: "the app works fine", Label: false},
	}
	v := NewVectorizer()
	v.Fit(docs)
	// "the app does not contain any bugs": the negated error word "bugs"
	// must not contribute features.
	withNeg := v.tokensOf("the app does not contain any bugs")
	for _, w := range withNeg {
		if w == "bugs" {
			t.Errorf("negated error word 'bugs' not filtered: %v", withNeg)
		}
	}
	// Without negation the word survives.
	plain := v.tokensOf("the app contains bugs")
	found := false
	for _, w := range plain {
		if w == "bugs" {
			found = true
		}
	}
	if !found {
		t.Errorf("non-negated 'bugs' wrongly removed: %v", plain)
	}
}

func TestVectorizerWithoutNegationFiltering(t *testing.T) {
	v := NewVectorizer(WithoutNegationFiltering())
	v.Fit([]Document{{Text: "app bugs", Label: true}})
	words := v.tokensOf("the app does not contain any bugs")
	found := false
	for _, w := range words {
		if w == "bugs" {
			found = true
		}
	}
	if !found {
		t.Error("negation filtering should be disabled")
	}
}

func TestAllClassifiersLearn(t *testing.T) {
	docs := corpus(300)
	factories := []Factory{
		func() Classifier { return NewNaiveBayes() },
		func() Classifier { return NewMaxEnt() },
		func() Classifier { return NewSVM() },
		func() Classifier { return NewRandomForest() },
		func() Classifier { return NewBoostedTrees() },
	}
	for _, factory := range factories {
		c := factory()
		t.Run(c.Name(), func(t *testing.T) {
			m := CrossValidate(5, docs, factory, 1)
			if m.F1 < 0.7 {
				t.Errorf("%s F1 = %.3f (P=%.3f R=%.3f), want >= 0.7",
					c.Name(), m.F1, m.Precision, m.Recall)
			}
		})
	}
}

func TestBoostedTreesBest(t *testing.T) {
	// Table 2's headline: boosted regression trees have the best F1.
	docs := corpus(400)
	brt := CrossValidate(5, docs, func() Classifier { return NewBoostedTrees() }, 1)
	nb := CrossValidate(5, docs, func() Classifier { return NewNaiveBayes() }, 1)
	if brt.F1+0.05 < nb.F1 {
		t.Errorf("BRT F1 %.3f should not trail NB F1 %.3f by more than 0.05", brt.F1, nb.F1)
	}
}

func TestNaiveBayesHighRecall(t *testing.T) {
	// The paper's NB shows recall ~99%: it flags nearly every error review.
	docs := corpus(300)
	m := CrossValidate(5, docs, func() Classifier { return NewNaiveBayes() }, 1)
	if m.Recall < 0.85 {
		t.Errorf("NB recall = %.3f, want >= 0.85", m.Recall)
	}
}

func TestClassifierNames(t *testing.T) {
	want := map[string]Classifier{
		"Naive bayes":              NewNaiveBayes(),
		"Random forest":            NewRandomForest(),
		"SVM":                      NewSVM(),
		"Max entropy":              NewMaxEnt(),
		"Boosted regression trees": NewBoostedTrees(),
	}
	for name, c := range want {
		if c.Name() != name {
			t.Errorf("Name() = %q, want %q", c.Name(), name)
		}
	}
}

func TestMetricsCompute(t *testing.T) {
	m := Metrics{TP: 8, FP: 2, FN: 2, TN: 8}
	m.compute()
	if m.Precision != 0.8 || m.Recall != 0.8 {
		t.Errorf("P=%.2f R=%.2f, want 0.8/0.8", m.Precision, m.Recall)
	}
	if m.F1 < 0.79 || m.F1 > 0.81 {
		t.Errorf("F1 = %.3f", m.F1)
	}
}

func TestMetricsZeroDivision(t *testing.T) {
	var m Metrics
	m.compute() // must not panic
	if m.Precision != 0 || m.Recall != 0 || m.F1 != 0 {
		t.Error("zero confusion should yield zero metrics")
	}
}

func TestCrossValidateDeterministic(t *testing.T) {
	docs := corpus(120)
	a := CrossValidate(4, docs, func() Classifier { return NewBoostedTrees() }, 5)
	b := CrossValidate(4, docs, func() Classifier { return NewBoostedTrees() }, 5)
	if a != b {
		t.Errorf("cross-validation not deterministic: %+v vs %+v", a, b)
	}
}

func TestTrainOnPredicts(t *testing.T) {
	docs := corpus(300)
	vec, c := TrainOn(docs, func() Classifier { return NewBoostedTrees() })
	if !c.Predict(vec.Transform("the app keeps crashing when i upload photos")) {
		t.Error("clear error review not detected")
	}
	if c.Predict(vec.Transform("great app, sync contacts works perfectly")) {
		t.Error("clear positive review flagged as error")
	}
}

func TestEmptyTransform(t *testing.T) {
	v := NewVectorizer()
	v.Fit(corpus(10))
	if x := v.Transform(""); len(x) != 0 {
		t.Errorf("empty text produced %d features", len(x))
	}
}

func TestTrainOnFeaturelessCorpus(t *testing.T) {
	// Punctuation yields no tokens, so every vector is empty and the
	// feature pool is empty: no node can split, and every tree is a leaf.
	docs := []Document{
		{Text: "!!!", Label: true},
		{Text: "???", Label: true},
		{Text: "...", Label: false},
		{Text: ":-)", Label: true},
		{Text: "--", Label: true},
	}
	for _, factory := range []Factory{
		func() Classifier { return NewBoostedTrees() },
		func() Classifier { return NewRandomForest() },
	} {
		vec, c := TrainOn(docs, factory)
		var f *forest
		switch m := c.(type) {
		case *BoostedTrees:
			f = &m.forest
		case *RandomForest:
			f = &m.forest
		}
		if len(f.roots) == 0 || len(f.nodes) != len(f.roots) {
			t.Errorf("%s: %d nodes in %d trees, want one leaf per tree", c.Name(), len(f.nodes), len(f.roots))
		}
		if !c.Predict(vec.Transform("!!!")) {
			t.Errorf("%s: featureless review not given the majority label", c.Name())
		}
	}
}
