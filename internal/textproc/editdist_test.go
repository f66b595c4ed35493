package textproc

import (
	"math/rand"
	"testing"
)

func TestLevenshteinBasics(t *testing.T) {
	cases := []struct {
		a, b string
		want int
	}{
		{"", "", 0},
		{"a", "", 1},
		{"", "abc", 3},
		{"kitten", "sitting", 3},
		{"flaw", "lawn", 2},
		{"send", "send", 0},
		{"recieve", "receive", 2},
		{"sned", "send", 2},
		{"attch", "attach", 1},
	}
	for _, c := range cases {
		if got := Levenshtein(c.a, c.b); got != c.want {
			t.Errorf("Levenshtein(%q,%q) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// TestLevenshteinBoundedMatchesFull is the property test of the banded and
// one-edit fast paths: for random string pairs and every small threshold,
// the bounded distance must equal the full DP when the true distance is
// within k, and report k+1 otherwise.
func TestLevenshteinBoundedMatchesFull(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	alphabet := "abcdef"
	randWord := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	for trial := 0; trial < 2000; trial++ {
		a := randWord(rng.Intn(10))
		b := randWord(rng.Intn(10))
		full := Levenshtein(a, b)
		for k := 0; k <= 4; k++ {
			got := LevenshteinBounded(a, b, k)
			want := full
			if full > k {
				want = k + 1
			}
			if got != want {
				t.Fatalf("LevenshteinBounded(%q,%q,%d) = %d, want %d (full %d)",
					a, b, k, got, want, full)
			}
			if atMost := LevenshteinAtMost(a, b, k); atMost != (full <= k) {
				t.Fatalf("LevenshteinAtMost(%q,%q,%d) = %v, want %v", a, b, k, atMost, full <= k)
			}
		}
	}
}

// TestLevenshteinBoundedMutations checks the k=1 fast path against words
// derived by a single real edit, where the answer is known by construction.
func TestLevenshteinBoundedMutations(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	alphabet := "abcdefghij"
	base := []string{"message", "attachment", "download", "notification", "sync"}
	for trial := 0; trial < 500; trial++ {
		w := base[rng.Intn(len(base))]
		bs := []byte(w)
		switch rng.Intn(3) {
		case 0: // substitution
			i := rng.Intn(len(bs))
			bs[i] = alphabet[rng.Intn(len(alphabet))]
		case 1: // deletion
			i := rng.Intn(len(bs))
			bs = append(bs[:i], bs[i+1:]...)
		case 2: // insertion
			i := rng.Intn(len(bs) + 1)
			bs = append(bs[:i], append([]byte{alphabet[rng.Intn(len(alphabet))]}, bs[i:]...)...)
		}
		mut := string(bs)
		want := Levenshtein(w, mut) // 0 when the edit was a no-op substitution
		if got := LevenshteinBounded(w, mut, 1); got != want {
			t.Fatalf("LevenshteinBounded(%q,%q,1) = %d, want %d", w, mut, got, want)
		}
	}
}

// Levenshtein is the reference edit distance the bounded production
// version is checked against: the minimum number of single-character
// insertions, deletions, and substitutions needed to turn a into b, by the
// full single-row dynamic program.
func Levenshtein(a, b string) int {
	if a == b {
		return 0
	}
	if len(a) == 0 {
		return len(b)
	}
	if len(b) == 0 {
		return len(a)
	}
	// Single-row dynamic program.
	prev := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur := prev[0]
		prev[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			next := min3(prev[j]+1, prev[j-1]+1, cur+cost)
			cur = prev[j]
			prev[j] = next
		}
	}
	return prev[len(b)]
}

// LevenshteinAtMost reports whether Levenshtein(a,b) <= k, with early exit.
func LevenshteinAtMost(a, b string, k int) bool {
	return LevenshteinBounded(a, b, k) <= k
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
