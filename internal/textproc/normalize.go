package textproc

import (
	"strings"

	"reviewsolver/internal/memo"
)

// Normalizer repairs typos and expands abbreviations in review tokens, per
// §3.2.1: "To remove typos, we leverage the edit distance to discover the
// correct word if the word is not found in the dictionary. Abbreviations are
// replaced with their original words."
type Normalizer struct {
	dict    map[string]struct{}
	byLen   map[int][]string // dictionary words grouped by length for candidate pruning
	abbrevs map[string]string

	// Review vocabulary is heavily repeated, and a repair scan walks every
	// dictionary word of a near length, so repaired (and rejected) words are
	// memoized in the bounded memo.Cache, which pool workers sharing one
	// Normalizer may use concurrently.
	memo *memo.Cache[string]
}

// maxDist is the largest edit distance a typo repair may span. The paper's
// pipeline is conservative to avoid rewriting app-specific names.
const maxDist = 1

// NewNormalizer builds a Normalizer over the built-in review-English
// dictionary and abbreviation table.
func NewNormalizer() *Normalizer {
	n := &Normalizer{
		dict:    make(map[string]struct{}, len(reviewDictionary)),
		byLen:   make(map[int][]string),
		abbrevs: reviewAbbreviations,
		memo:    memo.New[string](),
	}
	for _, w := range reviewDictionary {
		n.addWord(w)
	}
	return n
}

func (n *Normalizer) addWord(w string) {
	if _, ok := n.dict[w]; ok {
		return
	}
	n.dict[w] = struct{}{}
	n.byLen[len(w)] = append(n.byLen[len(w)], w)
}

// Known reports whether a lower-cased word is in the dictionary.
func (n *Normalizer) Known(word string) bool {
	_, ok := n.dict[word]
	return ok
}

// NormalizeWord expands abbreviations then repairs typos. Words of three or
// fewer characters, numbers, and dictionary words pass through unchanged.
// The repaired word is chosen deterministically: minimal edit distance, then
// lexicographic order.
func (n *Normalizer) NormalizeWord(word string) string {
	w := strings.ToLower(word)
	if exp, ok := n.abbrevs[w]; ok {
		return exp
	}
	if len(w) <= 3 || n.Known(w) || !isAlphaWord(w) {
		return w
	}
	if repaired, ok := n.memo.Get(w); ok {
		return repaired
	}
	repaired := n.repair(w)
	n.memo.Put(w, repaired)
	return repaired
}

// MemoSize returns the number of memoized repairs currently resident;
// exported so serving can gauge the cache.
func (n *Normalizer) MemoSize() int { return n.memo.Len() }

// repair finds the closest dictionary word within maxDist, or returns w
// unchanged when none qualifies.
func (n *Normalizer) repair(w string) string {
	best, bestDist := "", maxDist+1
	for l := len(w) - maxDist; l <= len(w)+maxDist; l++ {
		for _, cand := range n.byLen[l] {
			d := LevenshteinBounded(w, cand, maxDist)
			if d > maxDist {
				continue
			}
			if d < bestDist || (d == bestDist && cand < best) {
				best, bestDist = cand, d
			}
		}
	}
	if best != "" {
		return best
	}
	return w
}

// NormalizeSentence applies NormalizeWord to every word of a sentence and
// reassembles it with single spaces. Punctuation is preserved as separate
// tokens so downstream parsing still sees clause boundaries. When no word
// changes and the sentence already joins its tokens with single spaces, the
// input string is returned as-is without copying — the common case once a
// corpus has been normalized upstream.
func (n *Normalizer) NormalizeSentence(sentence string) string {
	sp := tokenScratch.Get().(*[]Token)
	toks := TokenizeInto((*sp)[:0], sentence)
	defer func() {
		*sp = toks[:0]
		tokenScratch.Put(sp)
	}()
	// canonical tracks whether every emitted part equals the original token
	// text at canonical single-space positions, proving output == input.
	canonical := true
	end := 0
	parts := make([]string, 0, len(toks))
	for i, t := range toks {
		var part string
		switch t.Kind {
		case Word:
			part = n.NormalizeWord(t.Lower)
		default:
			part = t.Text
		}
		parts = append(parts, part)
		if canonical {
			wantStart := 0
			if i > 0 {
				wantStart = end + 1
			}
			orig := sentence[t.Start : t.Start+len(t.Text)]
			if t.Start != wantStart || part != orig {
				canonical = false
			} else {
				end = t.Start + len(t.Text)
			}
		}
	}
	if canonical && end == len(sentence) {
		return sentence
	}
	return strings.Join(parts, " ")
}

func isAlphaWord(w string) bool {
	for i := 0; i < len(w); i++ {
		if !isLetter(w[i]) {
			return false
		}
	}
	return true
}
