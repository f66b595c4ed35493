package textproc

import (
	"strings"
	"sync"
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
	// memoized. Guarded because one Normalizer is shared across pool workers.
	// The memo is bounded by generation rotation: when the current map
	// reaches memoCap/2 entries it becomes the previous generation and a
	// fresh map takes over, so total residency never exceeds memoCap while
	// hot words survive rotation via promotion on lookup.
	mu   sync.RWMutex
	memo map[string]string
	prev map[string]string
}

// memoCap bounds the repair cache so adversarial input can't grow it without
// limit; review vocabularies are far smaller in practice.
const memoCap = 1 << 16

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
		memo:    make(map[string]string),
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
	n.mu.RLock()
	repaired, ok := n.memo[w]
	if ok {
		n.mu.RUnlock()
		return repaired
	}
	repaired, ok = n.prev[w]
	n.mu.RUnlock()
	if ok {
		n.memoPut(w, repaired) // promote so hot words survive rotation
		return repaired
	}
	repaired = n.repair(w)
	n.memoPut(w, repaired)
	return repaired
}

// memoPut inserts (or promotes) a repair into the current memo generation,
// rotating generations when the current one fills.
func (n *Normalizer) memoPut(w, repaired string) {
	n.mu.Lock()
	if _, ok := n.memo[w]; !ok {
		if len(n.memo) >= memoCap/2 {
			n.prev = n.memo
			n.memo = make(map[string]string, memoCap/2)
		}
		n.memo[w] = repaired
	}
	n.mu.Unlock()
}

// MemoSize returns the number of memoized repairs currently resident across
// both generations; exported so serving can gauge the cache.
func (n *Normalizer) MemoSize() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.memo) + len(n.prev)
}

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
