// Package textclass implements the supervised review classifier of §3.2.2:
// TF-IDF and N-gram (N=2,3) features with negation-aware feature removal,
// and the five learning algorithms the paper compares in Table 2 (naive
// Bayes, random forest, linear SVM, maximum entropy, boosted regression
// trees), plus k-fold cross-validation.
package textclass

import (
	"math"
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

// FeatureVector is a sparse feature representation.
type FeatureVector map[int]float64

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

// tokensOf produces the effective token stream of a review: lower-cased
// words with negation-related error words removed (§3.2.2: "Since both
// 'bug' and 'not' are related to verb 'contain', we regard 'bug' as being
// related to 'not', and thus remove the word 'bug' related features").
func (v *Vectorizer) tokensOf(text string) []string {
	return v.tokensOfInto(nil, nil, text)
}

// tokensOfInto is tokensOf appending into caller-owned scratch: a reusable
// word slice and negation drop set (Transform pools both so classification
// does not reallocate them per review).
func (v *Vectorizer) tokensOfInto(words []string, drop map[int]bool, text string) []string {
	for _, sentence := range textproc.SplitSentences(text) {
		if !v.negAware {
			words = append(words, textproc.Words(sentence)...)
			continue
		}
		p := v.parser.ParseSentence(sentence)
		// The whole negated error mention is dropped — the error word AND
		// the negation tied to it — so that neither "bug" nor the "no"/"not"
		// that cancels it feeds the classifier.
		if drop == nil {
			drop = make(map[int]bool)
		} else {
			clear(drop)
		}
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
	for _, d := range docs {
		feats := featuresOf(v.tokensOf(d.Text))
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
// token slice, the negation drop set, the n-gram key buffer, and the counts
// map. One Vectorizer is shared across pool workers, so the scratch lives in
// a pool rather than on the struct.
type transformScratch struct {
	words  []string
	drop   map[int]bool
	key    []byte
	counts map[int]int
}

var transformScratchPool = sync.Pool{
	New: func() any {
		return &transformScratch{
			drop:   make(map[int]bool, 8),
			words:  make([]string, 0, 64),
			key:    make([]byte, 0, 64),
			counts: make(map[int]int, 64),
		}
	},
}

func (sc *transformScratch) release() {
	clear(sc.drop)
	clear(sc.counts)
	sc.words = sc.words[:0]
	sc.key = sc.key[:0]
	transformScratchPool.Put(sc)
}

// Transform converts a review text into its sparse feature vector:
// TF×IDF for unigrams, binary×IDF presence for n-grams. N-gram vocabulary
// lookups build their keys in a reused byte buffer and index the map with a
// direct string conversion, which the compiler compiles to an allocation-free
// probe — feature counting allocates only the returned vector.
func (v *Vectorizer) Transform(text string) FeatureVector {
	sc := transformScratchPool.Get().(*transformScratch)
	words := v.tokensOfInto(sc.words[:0], sc.drop, text)
	sc.words = words
	if len(words) == 0 {
		sc.release()
		return FeatureVector{}
	}
	counts := sc.counts
	for _, w := range words {
		if idx, ok := v.vocab[w]; ok {
			counts[idx]++
		}
	}
	key := sc.key
	for i := 0; i+1 < len(words); i++ {
		key = append(key[:0], words[i]...)
		key = append(key, ' ')
		key = append(key, words[i+1]...)
		if idx, ok := v.vocab[string(key)]; ok {
			counts[idx]++
		}
	}
	for i := 0; i+2 < len(words); i++ {
		key = append(key[:0], words[i]...)
		key = append(key, ' ')
		key = append(key, words[i+1]...)
		key = append(key, ' ')
		key = append(key, words[i+2]...)
		if idx, ok := v.vocab[string(key)]; ok {
			counts[idx]++
		}
	}
	sc.key = key
	vec := make(FeatureVector, len(counts))
	total := float64(len(words))
	for idx, c := range counts {
		tf := float64(c) / total
		vec[idx] = tf * v.idf[idx]
	}
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
