package wordvec

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"reviewsolver/internal/textproc"
)

func TestVectorDeterministic(t *testing.T) {
	m1, m2 := NewModel(), NewModel()
	for _, w := range []string{"mail", "picture", "zzzunknown"} {
		if m1.Vector(w) != m2.Vector(w) {
			t.Errorf("vector for %q differs across models", w)
		}
	}
}

func TestVectorNormalized(t *testing.T) {
	m := NewModel()
	for _, w := range []string{"mail", "send", "qwertyuiop"} {
		v := m.Vector(w)
		var n float64
		for _, x := range v {
			n += x * x
		}
		if math.Abs(n-1) > 1e-9 {
			t.Errorf("|v(%q)|² = %f, want 1", w, n)
		}
	}
}

func TestSynonymSimilarity(t *testing.T) {
	m := NewModel()
	// Same-group pairs must exceed the threshold.
	sameGroup := [][2]string{
		{"mail", "email"},
		{"picture", "video"},
		{"photo", "image"},
		// "post" itself is claimed by the content topic, so test with
		// "publish" which stays in the upload group.
		{"upload", "publish"},
		{"fetch", "get"},
		{"crash", "die"},
		{"sms", "message"},
	}
	for _, p := range sameGroup {
		if got := m.WordSimilarity(p[0], p[1]); got < DefaultThreshold {
			t.Errorf("WordSimilarity(%q,%q) = %.3f, want >= %.2f", p[0], p[1], got, DefaultThreshold)
		}
	}
	// Same-topic, different-group pairs must be related but below threshold.
	sameTopic := [][2]string{
		{"mail", "sms"},
		{"camera", "picture"},
		{"server", "connect"},
		{"send", "upload"},
	}
	for _, p := range sameTopic {
		got := m.WordSimilarity(p[0], p[1])
		if got >= DefaultThreshold {
			t.Errorf("WordSimilarity(%q,%q) = %.3f, want < threshold", p[0], p[1], got)
		}
		if got < 0.1 {
			t.Errorf("WordSimilarity(%q,%q) = %.3f, want topical relation > 0.1", p[0], p[1], got)
		}
	}
	// Unrelated pairs must be near zero.
	unrelated := [][2]string{
		{"mail", "crossword"},
		{"camera", "password"},
		{"time", "certificate"},
	}
	for _, p := range unrelated {
		if got := m.WordSimilarity(p[0], p[1]); got >= 0.5 {
			t.Errorf("WordSimilarity(%q,%q) = %.3f, want < 0.5", p[0], p[1], got)
		}
	}
}

func TestInflectionSharing(t *testing.T) {
	m := NewModel()
	// Out-of-lexicon inflected forms share a stem anchor.
	if got := m.WordSimilarity("flibbering", "flibber"); got < 0.6 {
		t.Errorf("stem similarity = %.3f, want >= 0.6", got)
	}
}

func TestPhraseSimilarityPaperExamples(t *testing.T) {
	m := NewModel()
	tests := []struct {
		a, b string
		want bool
	}{
		// §2.3 Example 1: "fetch mail" ≈ "get email".
		{"fetch mail", "get email", true},
		// §1: "save picture" ≈ "set video source" — picture ≈ video carries it
		// only partially; the paper maps via the media words. Check the noun pair.
		{"save picture", "save video", true},
		// §2.3 Example 2: "send sms" ≈ "send text message".
		{"send sms", "send text message", true},
		// Dissimilar phrases must not match.
		{"fetch mail", "take picture", false},
		{"register account", "play music", false},
	}
	for _, tt := range tests {
		if got := m.SimilarText(tt.a, tt.b); got != tt.want {
			t.Errorf("SimilarText(%q,%q) = %v (sim %.3f), want %v",
				tt.a, tt.b, got, m.SimilarityText(tt.a, tt.b), tt.want)
		}
	}
}

func TestCosineProperties(t *testing.T) {
	m := NewModel()
	identical := func(s string) bool {
		if s == "" {
			return true
		}
		v := m.Vector(s)
		return math.Abs(Cosine(v, v)-1) < 1e-9
	}
	if err := quick.Check(identical, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	symmetric := func(a, b string) bool {
		if a == "" || b == "" {
			return true
		}
		return math.Abs(m.WordSimilarity(a, b)-m.WordSimilarity(b, a)) < 1e-12
	}
	if err := quick.Check(symmetric, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	bounded := func(a, b string) bool {
		s := m.WordSimilarity(a, b)
		return s >= -1.0000001 && s <= 1.0000001
	}
	if err := quick.Check(bounded, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestEmptyPhrase(t *testing.T) {
	m := NewModel()
	v := m.PhraseVector(nil)
	for _, x := range v {
		if x != 0 {
			t.Fatal("empty phrase should be the zero vector")
		}
	}
	if got := m.Similarity(nil, []string{"mail"}); got != 0 {
		t.Errorf("similarity with empty phrase = %f, want 0", got)
	}
}

func TestThresholdOption(t *testing.T) {
	m := NewModel(WithThreshold(0.95))
	if m.Threshold() != 0.95 {
		t.Fatalf("threshold = %f", m.Threshold())
	}
	if m.SimilarText("fetch mail", "get email") {
		t.Error("0.95 threshold should reject the fetch-mail/get-email pair")
	}
}

func TestGroupCount(t *testing.T) {
	if GroupCount() < 60 {
		t.Errorf("synonym lexicon suspiciously small: %d groups", GroupCount())
	}
}

// TestConcurrentVector exercises the lock-guarded memo cache: concurrent
// first-use of the same words must be race-free and produce the same
// deterministic vectors a cold sequential model computes.
func TestConcurrentVector(t *testing.T) {
	words := []string{
		"mail", "email", "photo", "crash", "login", "upload", "download",
		"message", "button", "screen", "fetch", "send", "sync", "account",
	}
	ref := NewModel()
	want := make([]Vector, len(words))
	for i, w := range words {
		want[i] = ref.Vector(w)
	}

	shared := NewModel()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 50; round++ {
				for i, w := range words {
					if got := shared.Vector(w); got != want[i] {
						t.Errorf("goroutine %d: Vector(%q) diverged", g, w)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// SimilarityText tokenizes two phrase strings and returns their similarity.
func (m *Model) SimilarityText(a, b string) float64 {
	return m.Similarity(textproc.Words(a), textproc.Words(b))
}

// SimilarText reports whether two phrase strings meet the threshold.
func (m *Model) SimilarText(a, b string) bool {
	return m.SimilarityText(a, b) >= m.threshold
}

// GroupCount returns the number of synonym groups; exposed for tests.
func GroupCount() int { return len(synonymGroups) }
