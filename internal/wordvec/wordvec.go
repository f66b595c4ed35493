// Package wordvec provides the word-embedding model that ReviewSolver uses
// to decide whether a review phrase and a code-derived phrase have the same
// meaning (§4.1.1): each word maps to a vector, a phrase vector is the mean
// of its word vectors, and two phrases match when their cosine similarity
// reaches the threshold (0.68 in the paper, following AutoCog).
//
// The paper uses word2vec trained on Google News (3M words × 300 dims). That
// model cannot ship in an offline stdlib-only reproduction, so this package
// substitutes a deterministic constructed embedding: every word receives a
// hash-seeded base vector, and a curated synonym lexicon ties related words
// to shared anchor directions (same synonym group → cosine ≈ 0.8, same
// broader topic → cosine ≈ 0.35, unrelated → cosine ≈ 0). The decision the
// downstream code makes — "is 'save picture' similar to 'set video source'?"
// — therefore behaves like the original: synonyms match, topical words are
// related but below threshold, unrelated words never match.
package wordvec

import (
	"hash/fnv"
	"math"
	"sync"
)

// Dim is the dimensionality of the embedding vectors.
const Dim = 64

// DefaultThreshold is the phrase-similarity threshold from the paper
// (§4.1.1, following AutoCog).
const DefaultThreshold = 0.68

// Vector is an embedding vector.
type Vector [Dim]float64

// Model maps words to vectors. A Model is safe for concurrent use: word
// vectors are deterministic functions of the word, and the memo cache is
// guarded by a read-write lock, so any number of goroutines may share one
// model (the core.Snapshot layer relies on this).
type Model struct {
	mu        sync.RWMutex
	cache     map[string]Vector
	groupOf   map[string]int // word → synonym group index
	topicOf   map[int]string // group index → topic anchor name
	threshold float64
}

// Option configures a Model.
type Option func(*Model)

// WithThreshold overrides the phrase-similarity threshold.
func WithThreshold(t float64) Option {
	return func(m *Model) { m.threshold = t }
}

// NewModel builds the embedding model over the built-in synonym lexicon.
func NewModel(opts ...Option) *Model {
	m := &Model{
		cache:     make(map[string]Vector, 512),
		groupOf:   make(map[string]int, 512),
		topicOf:   make(map[int]string, len(synonymGroups)),
		threshold: DefaultThreshold,
	}
	for gi, g := range synonymGroups {
		m.topicOf[gi] = g.topic
		for _, w := range g.words {
			m.groupOf[w] = gi
		}
	}
	for _, opt := range opts {
		opt(m)
	}
	return m
}

// Threshold returns the similarity threshold in use.
func (m *Model) Threshold() float64 { return m.threshold }

// Coefficients mixing the anchor directions into a word vector. Chosen so
// that same-group words have cosine ≈ topicW²+groupW² ≈ 0.81 (well above the
// 0.68 threshold), same-topic/different-group words ≈ topicW² ≈ 0.30 (well
// below), and unrelated words ≈ 0.
const (
	topicWeight = 0.55
	groupWeight = 0.71
	noiseWeight = 0.44
)

// Vector returns the embedding of a lower-cased word. Vectors are memoised;
// concurrent first-use of the same word may compute it twice, but both
// computations produce the identical deterministic vector.
func (m *Model) Vector(word string) Vector {
	m.mu.RLock()
	v, ok := m.cache[word]
	m.mu.RUnlock()
	if ok {
		return v
	}
	v = m.computeVector(word)
	m.mu.Lock()
	m.cache[word] = v
	m.mu.Unlock()
	return v
}

// computeVector derives the deterministic embedding of one word.
func (m *Model) computeVector(word string) Vector {
	var v Vector
	if gi, ok := m.groupOf[word]; ok {
		topic := hashVector("topic:" + m.topicOf[gi])
		group := hashVector("group:" + synonymGroups[gi].anchor())
		noise := hashVector("word:" + word)
		for i := 0; i < Dim; i++ {
			v[i] = topicWeight*topic[i] + groupWeight*group[i] + noiseWeight*noise[i]
		}
	} else {
		// Out-of-lexicon words: morphological root sharing. "crashing" and
		// "crash" share a stem anchor so inflected forms still match.
		stem := stemOf(word)
		base := hashVector("stem:" + stem)
		noise := hashVector("word:" + word)
		for i := 0; i < Dim; i++ {
			v[i] = 0.93*base[i] + 0.37*noise[i]
		}
	}
	normalize(&v)
	return v
}

// PhraseVector returns the normalized mean vector of the phrase's words,
// per the paper's Vector(phrase) = (1/n) Σ Vector(word_i). Stopwords are
// kept (the paper averages all words); empty input yields the zero vector.
func (m *Model) PhraseVector(words []string) Vector {
	var v Vector
	if len(words) == 0 {
		return v
	}
	n := 0
	for _, w := range words {
		wv := m.Vector(w)
		for i := 0; i < Dim; i++ {
			v[i] += wv[i]
		}
		n++
	}
	if n == 0 {
		return v
	}
	for i := 0; i < Dim; i++ {
		v[i] /= float64(n)
	}
	normalize(&v)
	return v
}

// Similarity returns the cosine similarity of two phrases given as word
// slices.
func (m *Model) Similarity(a, b []string) float64 {
	return Cosine(m.PhraseVector(a), m.PhraseVector(b))
}

// WordSimilarity returns the cosine similarity of two single words.
func (m *Model) WordSimilarity(a, b string) float64 {
	return Cosine(m.Vector(a), m.Vector(b))
}

// Cosine returns the cosine similarity of two vectors (0 for zero vectors).
func Cosine(a, b Vector) float64 {
	var dot, na, nb float64
	for i := 0; i < Dim; i++ {
		dot += a[i] * b[i]
		na += a[i] * a[i]
		nb += b[i] * b[i]
	}
	if na == 0 || nb == 0 {
		return 0
	}
	return dot / (math.Sqrt(na) * math.Sqrt(nb))
}

// hashVector derives a deterministic unit vector from a seed string using
// FNV-1a driven xorshift.
func hashVector(seed string) Vector {
	h := fnv.New64a()
	_, _ = h.Write([]byte(seed))
	state := h.Sum64()
	if state == 0 {
		state = 0x9e3779b97f4a7c15
	}
	var v Vector
	for i := 0; i < Dim; i++ {
		// xorshift64*
		state ^= state >> 12
		state ^= state << 25
		state ^= state >> 27
		u := state * 0x2545f4914f6cdd1d
		// Map to roughly standard normal via sum of uniforms (CLT, 4 terms).
		s := 0.0
		for k := 0; k < 4; k++ {
			s += float64((u>>(k*16))&0xffff)/65535.0 - 0.5
		}
		v[i] = s
	}
	normalize(&v)
	return v
}

func normalize(v *Vector) {
	var n float64
	for i := 0; i < Dim; i++ {
		n += v[i] * v[i]
	}
	if n == 0 {
		return
	}
	n = math.Sqrt(n)
	for i := 0; i < Dim; i++ {
		v[i] /= n
	}
}

// stemOf reduces simple English inflections so out-of-lexicon word forms
// share an anchor ("crashing"/"crashed"/"crashes" → "crash").
func stemOf(w string) string {
	switch {
	case len(w) > 5 && w[len(w)-3:] == "ing":
		w = w[:len(w)-3]
	case len(w) > 4 && w[len(w)-2:] == "ed":
		w = w[:len(w)-2]
	case len(w) > 4 && w[len(w)-2:] == "es":
		w = w[:len(w)-2]
	case len(w) > 3 && w[len(w)-1] == 's' && w[len(w)-2] != 's':
		w = w[:len(w)-1]
	}
	// Undouble final consonant ("stopp" → "stop").
	if len(w) > 3 && w[len(w)-1] == w[len(w)-2] && !isVowel(w[len(w)-1]) {
		w = w[:len(w)-1]
	}
	return w
}

func isVowel(c byte) bool {
	switch c {
	case 'a', 'e', 'i', 'o', 'u':
		return true
	}
	return false
}
