package textproc

import (
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
)

func TestNormalizeWord(t *testing.T) {
	n := NewNormalizer()
	tests := []struct {
		name, in, want string
	}{
		{"abbrev pls", "pls", "please"},
		{"abbrev pic", "pic", "picture"},
		{"abbrev msg", "msg", "message"},
		// "crashs" repairs to "crash" (distance 1, lexicographically first
		// among the distance-1 candidates "crash"/"crashes").
		{"typo crashs", "crashs", "crash"},
		{"typo conect", "conect", "connect"},
		{"known word untouched", "crashes", "crashes"},
		{"short word untouched", "the", "the"},
		{"case folded", "CRASHES", "crashes"},
		{"number untouched", "404", "404"},
		{"unknown far word untouched", "qzxwvy", "qzxwvy"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := n.NormalizeWord(tt.in); got != tt.want {
				t.Errorf("NormalizeWord(%q) = %q, want %q", tt.in, got, tt.want)
			}
		})
	}
}

func TestNormalizeWordDeterministic(t *testing.T) {
	n := NewNormalizer()
	first := n.NormalizeWord("crashs")
	for i := 0; i < 10; i++ {
		if got := n.NormalizeWord("crashs"); got != first {
			t.Fatalf("non-deterministic repair: %q then %q", first, got)
		}
	}
}

func TestWithExtraWords(t *testing.T) {
	// Without the extra word, "twidere" would be eligible for repair;
	// with it, it must pass through.
	n := NewNormalizer().withExtraWords([]string{"twidere", "wordpress"})
	if !n.Known("twidere") {
		t.Fatal("extra word not registered")
	}
	if got := n.NormalizeWord("twidere"); got != "twidere" {
		t.Errorf("app word rewritten to %q", got)
	}
}

func TestNormalizeSentence(t *testing.T) {
	n := NewNormalizer()
	got := n.NormalizeSentence("pls fix the crashs")
	want := "please fix the crash"
	if got != want {
		t.Errorf("NormalizeSentence = %q, want %q", got, want)
	}
}

func TestNormalizerDictionary(t *testing.T) {
	n := NewNormalizer()
	if n.DictionarySize() < 500 {
		t.Errorf("dictionary suspiciously small: %d words", n.DictionarySize())
	}
	words := n.DictionaryWords()
	if len(words) != n.DictionarySize() {
		t.Errorf("DictionaryWords length %d != size %d", len(words), n.DictionarySize())
	}
}

func TestSplitIdentifier(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"getEmail", []string{"get", "email"}},
		{"MessageListFragment", []string{"message", "list", "fragment"}},
		{"quoted_text_edit", []string{"quoted", "text", "edit"}},
		{"show_password", []string{"show", "password"}},
		{"HTTPClient", []string{"http", "client"}},
		{"onCreate", []string{"on", "create"}},
		{"sendSMS", []string{"send", "sms"}},
		{"", nil},
		{"a", []string{"a"}},
		{"reply_to", []string{"reply", "to"}},
	}
	for _, tt := range tests {
		if got := SplitIdentifier(tt.in); !reflect.DeepEqual(got, tt.want) {
			t.Errorf("SplitIdentifier(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestExpandUIAbbreviation(t *testing.T) {
	if got := ExpandUIAbbreviation("btn"); got != "button" {
		t.Errorf("btn → %q", got)
	}
	if got := ExpandUIAbbreviation("rb"); got != "radio button" {
		t.Errorf("rb → %q", got)
	}
	if got := ExpandUIAbbreviation("password"); got != "password" {
		t.Errorf("non-abbrev changed: %q", got)
	}
}

func TestExpandUIWords(t *testing.T) {
	got := ExpandUIWords([]string{"login", "btn"})
	want := []string{"login", "button"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ExpandUIWords = %v, want %v", got, want)
	}
	got = ExpandUIWords([]string{"rb", "dark"})
	want = []string{"radio", "button", "dark"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ExpandUIWords multiword = %v, want %v", got, want)
	}
}

func TestUIAbbreviationCount(t *testing.T) {
	if UIAbbreviationCount() < 39 {
		t.Errorf("paper collected 39 UI abbreviations; have %d", UIAbbreviationCount())
	}
}

func TestIsStopword(t *testing.T) {
	for _, w := range []string{"the", "on", "is"} {
		if !IsStopword(w) {
			t.Errorf("%q should be a stopword", w)
		}
	}
	for _, w := range []string{"crash", "email", "button"} {
		if IsStopword(w) {
			t.Errorf("%q should not be a stopword", w)
		}
	}
}

func TestNormalizeSentenceFastPath(t *testing.T) {
	n := NewNormalizer()
	// Canonical input (all known words, single spaces) returns the identical
	// string value without re-joining.
	canonical := "cannot send the message"
	if got := n.NormalizeSentence(canonical); got != canonical {
		t.Fatalf("fast path changed canonical input: %q", got)
	}
	// Slow paths: repairs, extra spacing, and punctuation spacing still
	// normalize as before.
	for _, tt := range []struct{ in, want string }{
		{"cannot  send", "cannot send"}, // double space re-joins
		{"Cannot Send", "cannot send"},  // case folds
		{"canot send", "cant send"},     // typo repair (closest dictionary word)
		{"send it!", "send it !"},       // punct becomes its own token
	} {
		if got := n.NormalizeSentence(tt.in); got != tt.want {
			t.Errorf("NormalizeSentence(%q) = %q, want %q", tt.in, got, tt.want)
		}
	}
}

func TestNormalizeMemoBounded(t *testing.T) {
	n := NewNormalizer()
	if n.MemoSize() != 0 {
		t.Fatalf("fresh normalizer MemoSize = %d, want 0", n.MemoSize())
	}
	n.NormalizeWord("canot")
	if n.MemoSize() != 1 {
		t.Errorf("after one repair MemoSize = %d, want 1", n.MemoSize())
	}
	// Memoized repair is stable.
	if a, b := n.NormalizeWord("canot"), n.NormalizeWord("canot"); a != b {
		t.Errorf("memoized repair unstable: %q vs %q", a, b)
	}
	// Exercise generation rotation directly and confirm residency never
	// exceeds the cap while promoted entries survive.
	for i := 0; i < memoCap; i++ {
		n.memoPut(fmt.Sprintf("wxyzq%05d", i), "w")
	}
	if size := n.MemoSize(); size > memoCap {
		t.Errorf("MemoSize = %d exceeds cap %d", size, memoCap)
	}
	// A prev-generation hit promotes into the current generation.
	n.memoPut("hotword", "hot")
	n.prev = n.memo
	n.memo = make(map[string]string)
	if got := n.NormalizeWord("hotword"); got != "hot" {
		t.Errorf("prev-generation lookup = %q, want %q", got, "hot")
	}
	n.mu.RLock()
	_, promoted := n.memo["hotword"]
	n.mu.RUnlock()
	if !promoted {
		t.Error("prev-generation hit was not promoted to the current generation")
	}
}

// withExtraWords adds app-specific vocabulary (e.g. class-name words, app
// names) so that they are not "repaired" into dictionary words.
func (n *Normalizer) withExtraWords(words []string) *Normalizer {
	for _, w := range words {
		n.addWord(strings.ToLower(w))
	}
	return n
}

// DictionarySize returns the number of words the normalizer knows; useful
// for diagnostics and tests.
func (n *Normalizer) DictionarySize() int { return len(n.dict) }

// DictionaryWords returns a sorted copy of the dictionary, mainly for tests.
func (n *Normalizer) DictionaryWords() []string {
	out := make([]string, 0, len(n.dict))
	for w := range n.dict {
		out = append(out, w)
	}
	sort.Strings(out)
	return out
}

// UIAbbreviationCount returns the number of UI abbreviations known; the
// paper reports 39 (§3.3.2).
func UIAbbreviationCount() int { return len(uiAbbreviations) }
