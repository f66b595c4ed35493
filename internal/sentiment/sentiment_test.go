package sentiment

import (
	"reflect"
	"testing"

	"reviewsolver/internal/textproc"
)

func TestSentiStrengthClassify(t *testing.T) {
	a := SentiStrength{}
	tests := []struct {
		sentence string
		want     Polarity
	}{
		{"a bad app, often crash", Negative},
		{"the app keeps crashing", Negative},
		{"love u first of all for making this app", Positive},
		{"it is a great app", Positive},
		{"my stats page doesnt work properly", Negative},
		{"it won't open anymore", Negative},
		{"i changed the font size", Neutral},
		{"not good at all", Negative},
		{"this is the worst update ever!!!", Negative},
		{"absolutely amazing, works perfectly", Positive},
	}
	for _, tt := range tests {
		if got := a.Classify(tt.sentence); got != tt.want {
			t.Errorf("SentiStrength.Classify(%q) = %s, want %s", tt.sentence, got, tt.want)
		}
	}
}

func TestAnalyzerNames(t *testing.T) {
	for _, tc := range []struct {
		a    Analyzer
		want string
	}{
		{SentiStrength{}, "SentiStrength"},
		{NLTK{}, "NLTK"},
		{Stanford{}, "Stanford"},
	} {
		if tc.a.Name() != tc.want {
			t.Errorf("Name() = %q, want %q", tc.a.Name(), tc.want)
		}
	}
}

func TestNLTKConservative(t *testing.T) {
	a := NLTK{}
	// Functional complaint without strong sentiment words: NLTK misses it.
	if got := a.Classify("the reply button doesn't show"); got != Neutral {
		t.Errorf("NLTK on mild functional complaint = %s, want neutral", got)
	}
	// Strong explicit negativity is caught.
	if got := a.Classify("terrible awful horrible app"); got != Negative {
		t.Errorf("NLTK on strong negative = %s, want negative", got)
	}
	if got := a.Classify("amazing wonderful perfect"); got != Positive {
		t.Errorf("NLTK on strong positive = %s, want positive", got)
	}
}

func TestStanfordConservative(t *testing.T) {
	a := Stanford{}
	if got := a.Classify("cannot login to my gmail"); got != Neutral {
		t.Errorf("Stanford on terse complaint = %s, want neutral", got)
	}
	if got := a.Classify("this app is terrible, horrible and useless"); got != Negative {
		t.Errorf("Stanford on strong negative = %s, want negative", got)
	}
}

// TestRelativeRecall is the invariant behind Table 4: on functional
// complaints typical of error reviews, SentiStrength finds negatives that
// the other two analyzers miss.
func TestRelativeRecall(t *testing.T) {
	complaints := []string{
		"the app keeps crashing when i open imgur links",
		"cannot login to my gmail",
		"sync does not work since the update",
		"it crashed every time i opened it",
		"unable to fetch mail on my phone",
		"won't connect, get a 404 error when adding site",
		"the reply button doesn't show anymore",
		"app started crashing after recent update",
	}
	count := func(a Analyzer) int {
		n := 0
		for _, c := range complaints {
			if a.Classify(c) == Negative {
				n++
			}
		}
		return n
	}
	ss, nltk, stanford := count(SentiStrength{}), count(NLTK{}), count(Stanford{})
	if ss <= nltk || ss <= stanford {
		t.Errorf("recall ordering violated: SentiStrength=%d NLTK=%d Stanford=%d", ss, nltk, stanford)
	}
	if ss < len(complaints)-1 {
		t.Errorf("SentiStrength recall too low: %d/%d", ss, len(complaints))
	}
}

func TestSplitAdversative(t *testing.T) {
	got := SplitAdversative("It's a great app but since the last update my stats page doesnt work properly")
	if len(got) != 2 {
		t.Fatalf("want 2 parts, got %d: %v", len(got), got)
	}
	if got[0] != "It's a great app" {
		t.Errorf("part 0 = %q", got[0])
	}
	one := SplitAdversative("the app crashes on startup")
	if len(one) != 1 {
		t.Errorf("sentence without adversative split into %d parts", len(one))
	}
}

func TestNegativeSentences(t *testing.T) {
	review := "It's a great app but since the last update my stats page doesnt work properly."
	kept := NegativeSentences(SentiStrength{}, review)
	if len(kept) != 1 {
		t.Fatalf("want 1 kept clause, got %v", kept)
	}
	if want := "since the last update my stats page doesnt work properly"; kept[0] != want {
		t.Errorf("kept = %q, want %q", kept[0], want)
	}
}

func TestNegativeSentencesKeepsNeutral(t *testing.T) {
	review := "I changed the font size. The app crashed."
	kept := NegativeSentences(SentiStrength{}, review)
	// Both the neutral and the negative sentence must be kept.
	if len(kept) != 2 {
		t.Errorf("want 2 kept sentences, got %v", kept)
	}
}

func TestHasNegativeSentence(t *testing.T) {
	if !HasNegativeSentence(SentiStrength{}, "Nice UI. Sadly it crashes constantly.") {
		t.Error("negative sentence not detected")
	}
	if HasNegativeSentence(SentiStrength{}, "Nice UI. Love it.") {
		t.Error("all-positive review flagged negative")
	}
}

func TestIsAdversative(t *testing.T) {
	for _, w := range []string{"but", "however", "whereas"} {
		if !IsAdversative(w) {
			t.Errorf("IsAdversative(%q) = false", w)
		}
	}
	if IsAdversative("and") {
		t.Error("IsAdversative(and) = true")
	}
}

func TestPolarityString(t *testing.T) {
	want := map[Polarity]string{Negative: "negative", Neutral: "neutral", Positive: "positive"}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("%d.String() = %q, want %q", p, p.String(), s)
		}
	}
	if Polarity(0).String() != "unknown" {
		t.Error("zero polarity should be unknown")
	}
}

func TestClassifyDeterministic(t *testing.T) {
	a := SentiStrength{}
	s := "the app keeps crashing but i love the design"
	first := a.Classify(s)
	for i := 0; i < 5; i++ {
		if got := a.Classify(s); got != first {
			t.Fatal("non-deterministic classification")
		}
	}
}

func TestSplitAdversativePreservesWords(t *testing.T) {
	in := "good app but crashes often though i still use it"
	parts := SplitAdversative(in)
	if !reflect.DeepEqual(len(parts), 3) {
		t.Fatalf("want 3 parts, got %v", parts)
	}
}

// NegativeSentences runs the analyzer over every clause of every sentence of
// a review and returns the sentences (clause-level after adversative
// splitting) that are negative or neutral — the ones that may describe the
// error and should feed phrase extraction. Positive clauses are discarded.
func NegativeSentences(a Analyzer, review string) []string {
	var kept []string
	for _, sentence := range textproc.SplitSentences(review) {
		for _, clause := range SplitAdversative(sentence) {
			if a.Classify(clause) != Positive {
				kept = append(kept, clause)
			}
		}
	}
	return kept
}
