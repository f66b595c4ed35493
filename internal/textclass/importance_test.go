package textclass

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// importanceCorpus: "crash"/"broken" drive the label; filler words do not.
func importanceCorpus(n int) []Document {
	rng := rand.New(rand.NewSource(3))
	filler := []string{"the", "app", "today", "phone", "screen", "really", "very"}
	docs := make([]Document, 0, n)
	for i := 0; i < n; i++ {
		words := make([]string, 0, 8)
		for k := 0; k < 5; k++ {
			words = append(words, filler[rng.Intn(len(filler))])
		}
		label := i%2 == 0
		if label {
			if i%4 == 0 {
				words = append(words, "crash")
			} else {
				words = append(words, "broken")
			}
		} else {
			words = append(words, "love")
		}
		docs = append(docs, Document{Text: strings.Join(words, " "), Label: label})
	}
	return docs
}

func TestFeatureImportances(t *testing.T) {
	docs := importanceCorpus(400)
	vec := NewVectorizer()
	vec.Fit(docs)
	xs, ys := vec.TransformAll(docs)
	bt := NewBoostedTrees()
	bt.Fit(xs, ys)

	top := vec.TopFeatureNames(bt, 8)
	if len(top) == 0 {
		t.Fatal("no importances")
	}
	joined := strings.Join(top, " | ")
	foundSignal := false
	for _, want := range []string{"crash", "broken", "love"} {
		for _, f := range top {
			if f == want {
				foundSignal = true
			}
		}
	}
	if !foundSignal {
		t.Errorf("top features %s contain none of the label-driving words", joined)
	}
}

func TestFeatureNameRoundtrip(t *testing.T) {
	vec := NewVectorizer()
	vec.Fit([]Document{{Text: "crash report", Label: true}})
	found := false
	for i := 0; i < vec.VocabSize(); i++ {
		name, ok := vec.FeatureName(i)
		if !ok {
			t.Fatalf("index %d unresolved", i)
		}
		if name == "crash" {
			found = true
		}
	}
	if !found {
		t.Error("feature 'crash' not in vocabulary")
	}
	if _, ok := vec.FeatureName(1 << 30); ok {
		t.Error("bogus index resolved")
	}
}

func TestImportancesEmptyModel(t *testing.T) {
	bt := NewBoostedTrees()
	if got := bt.FeatureImportances(); len(got) != 0 {
		t.Errorf("untrained model has importances: %v", got)
	}
}

// subtreeMean averages the two subtrees of every inner node below node i.
func (f *forest) subtreeMean(i int32) float64 {
	n := &f.nodes[i]
	if n.slot < 0 {
		return n.value
	}
	return (f.subtreeMean(i+1) + f.subtreeMean(n.right)) / 2
}

// FeatureImportances returns the gradient-boosting importance of each
// feature: the total absolute difference between the two child responses of
// every split on that feature, summed over the ensemble. Higher means the
// feature moves predictions more. Useful for inspecting what the review
// classifier learned (e.g. that "crash" and "cannot" dominate).
func (bt *BoostedTrees) FeatureImportances() map[int]float64 {
	out := make(map[int]float64)
	f := &bt.forest
	// Nodes are in preorder tree by tree, the order a recursive walk of
	// the ensemble visits its splits.
	for i, n := range f.nodes {
		if n.slot < 0 {
			continue
		}
		d := f.subtreeMean(int32(i)+1) - f.subtreeMean(n.right)
		if d < 0 {
			d = -d
		}
		out[n.feature] += d
	}
	return out
}

// VocabSize returns the number of features after fitting.
func (v *Vectorizer) VocabSize() int { return len(v.vocab) }

// FeatureName returns the raw feature string (word or n-gram) behind a
// feature index, for introspection of trained models.
func (v *Vectorizer) FeatureName(idx int) (string, bool) {
	for name, i := range v.vocab {
		if i == idx {
			return name, true
		}
	}
	return "", false
}

// TopFeatureNames resolves the k highest-importance features of a trained
// BoostedTrees model into their raw strings, most important first.
func (v *Vectorizer) TopFeatureNames(bt *BoostedTrees, k int) []string {
	imp := bt.FeatureImportances()
	idxs := make([]int, 0, len(imp))
	for f := range imp {
		idxs = append(idxs, f)
	}
	sort.Slice(idxs, func(a, b int) bool {
		if imp[idxs[a]] != imp[idxs[b]] {
			return imp[idxs[a]] > imp[idxs[b]]
		}
		return idxs[a] < idxs[b]
	})
	if k > len(idxs) {
		k = len(idxs)
	}
	// Invert the vocabulary once instead of per lookup.
	inv := make(map[int]string, len(v.vocab))
	for name, i := range v.vocab {
		inv[i] = name
	}
	out := make([]string, 0, k)
	for _, f := range idxs[:k] {
		out = append(out, inv[f])
	}
	return out
}
