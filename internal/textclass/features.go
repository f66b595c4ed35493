// Package textclass implements the supervised review classifier of §3.2.2:
// TF-IDF and N-gram (N=2,3) features with negation-aware feature removal,
// and the five learning algorithms the paper compares in Table 2 (naive
// Bayes, random forest, linear SVM, maximum entropy, boosted regression
// trees), plus k-fold cross-validation.
package textclass

import (
	"math"
	"math/bits"
	"sort"
	"strings"
	"sync"

	"reviewsolver/internal/parser"
	"reviewsolver/internal/phrase"
	"reviewsolver/internal/textproc"
)

// Document is a labeled training text.
type Document struct {
	// Text is the raw review text.
	Text string
	// Label is true for function-error reviews.
	Label bool
}

// Feature is one entry of a FeatureVector: a vocabulary id and its weight.
type Feature struct {
	ID     int
	Weight float64
}

// FeatureVector is a sparse feature representation: each feature a text
// holds, once, in increasing ID order. Classifiers iterate it in that order,
// so their float sums do not depend on map iteration order.
type FeatureVector []Feature

// Vectorizer converts review text into TF-IDF + n-gram feature vectors.
// It must be fitted on a corpus before transforming.
type Vectorizer struct {
	vocab    map[string]int
	idf      []float64
	negAware bool
	parser   *parser.Parser
}

// VectorizerOption configures a Vectorizer.
type VectorizerOption func(*Vectorizer)

// WithoutNegationFiltering disables the typed-dependency negation filter
// (used by the ablation experiments).
func WithoutNegationFiltering() VectorizerOption {
	return func(v *Vectorizer) { v.negAware = false }
}

// NewVectorizer returns an unfitted vectorizer.
func NewVectorizer(opts ...VectorizerOption) *Vectorizer {
	v := &Vectorizer{
		vocab:    make(map[string]int),
		negAware: true,
		parser:   parser.New(),
	}
	for _, opt := range opts {
		opt(v)
	}
	return v
}

// tokensInto produces the effective token stream of a review: lower-cased
// words with negation-related error words removed (§3.2.2: "Since both
// 'bug' and 'not' are related to verb 'contain', we regard 'bug' as being
// related to 'not', and thus remove the word 'bug' related features"). It
// returns sc.words, valid until sc is released.
//
// Every drop rule of appendUnnegated removes a token only together with an
// error word (the negated verb's object, the negated determiner's head, the
// fallback's word), so a sentence without an error word keeps every Word
// and Number token. Those tokens are the lowered tokens of
// textproc.Tokenize, which ParseSentence tokenizes with, so such a sentence
// skips the parse and yields the same words. Only 3.9 % of the seed-1 Table
// 6 corpus's sentences hold an error word.
func (v *Vectorizer) tokensInto(sc *transformScratch, text string) []string {
	words := sc.words[:0]
	for _, sentence := range textproc.SplitSentences(text) {
		toks := textproc.TokenizeInto(sc.toks[:0], sentence)
		sc.toks = toks
		if v.negAware && holdsErrorWord(toks) {
			words = v.appendUnnegated(words, sentence)
			continue
		}
		for _, t := range toks {
			if t.Kind == textproc.Word || t.Kind == textproc.Number {
				words = append(words, t.Lower)
			}
		}
	}
	sc.words = words
	return words
}

// holdsErrorWord reports whether any token is an error word.
func holdsErrorWord(toks []textproc.Token) bool {
	for _, t := range toks {
		if phrase.IsErrorWord(t.Lower) {
			return true
		}
	}
	return false
}

// appendUnnegated parses one sentence and appends its lower-cased Word and
// Number tokens to words, minus every negated error mention.
func (v *Vectorizer) appendUnnegated(words []string, sentence string) []string {
	p := v.parser.ParseSentence(sentence)
	// The whole negated error mention is dropped — the error word AND
	// the negation tied to it — so that neither "bug" nor the "no"/"not"
	// that cancels it feeds the classifier.
	drop := make(map[int]bool)
	for _, nd := range p.DepsWithRel(parser.RelNeg) {
		// Error words that are objects (or passive subjects) of a
		// negated verb do not signal a real error.
		for _, d := range p.Deps {
			if d.Head != nd.Head {
				continue
			}
			switch d.Rel {
			case parser.RelDObj, parser.RelNSubjPass, parser.RelNSubj:
				if phrase.IsErrorWord(p.Tokens[d.Dep].Lower) {
					drop[d.Dep] = true
					drop[nd.Dep] = true
				}
			}
		}
	}
	// Determiner negation: "no bugs", "zero errors".
	for _, d := range p.DepsWithRel(parser.RelDet) {
		det := p.Tokens[d.Dep].Lower
		if (det == "no" || det == "zero" || det == "none") &&
			phrase.IsErrorWord(p.Tokens[d.Head].Lower) {
			drop[d.Head] = true
			drop[d.Dep] = true
		}
	}
	// Token-level fallback for clauses the chunker does not cover: an
	// error word with a negation word within the three preceding tokens.
	for i := 1; i < len(p.Tokens); i++ {
		if !phrase.IsErrorWord(p.Tokens[i].Lower) {
			continue
		}
		for j := i - 1; j >= 0 && j >= i-3; j-- {
			switch p.Tokens[j].Lower {
			case "no", "zero", "without", "never", "not":
				drop[i] = true
				drop[j] = true
			}
		}
	}
	for i, t := range p.Tokens {
		if drop[i] {
			continue
		}
		if t.Kind == textproc.Word || t.Kind == textproc.Number {
			words = append(words, t.Lower)
		}
	}
	return words
}

// featuresOf lists the raw feature strings of a token stream: unigrams plus
// 2-grams and 3-grams.
func featuresOf(words []string) []string {
	out := make([]string, 0, len(words)*3)
	out = append(out, words...)
	for i := 0; i+1 < len(words); i++ {
		out = append(out, words[i]+" "+words[i+1])
	}
	for i := 0; i+2 < len(words); i++ {
		out = append(out, words[i]+" "+words[i+1]+" "+words[i+2])
	}
	return out
}

// Fit builds the vocabulary and IDF table from a corpus.
func (v *Vectorizer) Fit(docs []Document) {
	df := make(map[string]int)
	sc := transformScratchPool.Get().(*transformScratch)
	defer sc.release()
	for _, d := range docs {
		feats := featuresOf(v.tokensInto(sc, d.Text))
		seen := make(map[string]struct{}, len(feats))
		for _, f := range feats {
			if _, dup := seen[f]; dup {
				continue
			}
			seen[f] = struct{}{}
			df[f]++
		}
	}
	// Deterministic vocabulary order; drop hapax n-grams to bound the space.
	keys := make([]string, 0, len(df))
	for f, c := range df {
		if c >= 2 || !strings.Contains(f, " ") {
			keys = append(keys, f)
		}
	}
	sort.Strings(keys)
	v.idf = make([]float64, len(keys))
	n := float64(len(docs))
	for i, f := range keys {
		v.vocab[f] = i
		v.idf[i] = math.Log(n / float64(df[f]))
	}
}

// transformScratch recycles the per-call working state of Transform: the
// token and word slices, the n-gram key buffer, and the feature counts. One Vectorizer is shared across pool workers, so the
// scratch lives in a pool rather than on the struct.
type transformScratch struct {
	toks  []textproc.Token
	words []string
	key   []byte
	// counts[id] counts feature id, and bit id of seen marks it counted;
	// both are indexed by vocabulary id and all zero between calls.
	counts   []int
	seen     []uint64
	distinct int
}

var transformScratchPool = sync.Pool{
	New: func() any {
		return &transformScratch{
			toks:  make([]textproc.Token, 0, 32),
			words: make([]string, 0, 64),
			key:   make([]byte, 0, 64),
		}
	},
}

func (sc *transformScratch) release() {
	sc.toks = sc.toks[:0]
	sc.words = sc.words[:0]
	sc.key = sc.key[:0]
	transformScratchPool.Put(sc)
}

// count counts one occurrence of feature id.
func (sc *transformScratch) count(id int) {
	if sc.counts[id] == 0 {
		sc.distinct++
		sc.seen[id>>6] |= 1 << (id & 63)
	}
	sc.counts[id]++
}

// Transform converts a review text into its sparse feature vector:
// TF×IDF for unigrams, binary×IDF presence for n-grams. N-gram vocabulary
// lookups build their keys in a reused byte buffer and index the map with a
// direct string conversion, which the compiler compiles to an allocation-free
// probe. Features are counted into pooled arrays indexed by vocabulary id
// and read back in id order from the seen bits, so feature counting
// allocates only the returned vector.
func (v *Vectorizer) Transform(text string) FeatureVector {
	sc := transformScratchPool.Get().(*transformScratch)
	words := v.tokensInto(sc, text)
	if len(words) == 0 {
		sc.release()
		return nil
	}
	if len(sc.counts) < len(v.idf) {
		sc.counts = make([]int, len(v.idf))
		sc.seen = make([]uint64, (len(v.idf)+63)/64)
	}
	for _, w := range words {
		if idx, ok := v.vocab[w]; ok {
			sc.count(idx)
		}
	}
	key := sc.key
	for i := 0; i+1 < len(words); i++ {
		key = append(key[:0], words[i]...)
		key = append(key, ' ')
		key = append(key, words[i+1]...)
		if idx, ok := v.vocab[string(key)]; ok {
			sc.count(idx)
		}
	}
	for i := 0; i+2 < len(words); i++ {
		key = append(key[:0], words[i]...)
		key = append(key, ' ')
		key = append(key, words[i+1]...)
		key = append(key, ' ')
		key = append(key, words[i+2]...)
		if idx, ok := v.vocab[string(key)]; ok {
			sc.count(idx)
		}
	}
	sc.key = key
	if sc.distinct == 0 {
		sc.release()
		return nil
	}
	vec := make(FeatureVector, 0, sc.distinct)
	total := float64(len(words))
	for w, set := range sc.seen {
		if set == 0 {
			continue
		}
		for ; set != 0; set &= set - 1 {
			idx := w<<6 | bits.TrailingZeros64(set)
			tf := float64(sc.counts[idx]) / total
			vec = append(vec, Feature{ID: idx, Weight: tf * v.idf[idx]})
			sc.counts[idx] = 0
		}
		sc.seen[w] = 0
	}
	sc.distinct = 0
	sc.release()
	return vec
}

// TransformAll converts a corpus.
func (v *Vectorizer) TransformAll(docs []Document) ([]FeatureVector, []bool) {
	xs := make([]FeatureVector, len(docs))
	ys := make([]bool, len(docs))
	for i, d := range docs {
		xs[i] = v.Transform(d.Text)
		ys[i] = d.Label
	}
	return xs, ys
}
