package textclass

import (
	"math"
	"math/rand"
)

// Classifier is a trainable binary text classifier over sparse feature
// vectors. Positive label = function-error review.
type Classifier interface {
	// Fit trains on feature vectors xs with labels ys.
	Fit(xs []FeatureVector, ys []bool)
	// Predict returns the predicted label for one vector.
	Predict(x FeatureVector) bool
	// Name identifies the algorithm in Table 2.
	Name() string
}

// Factory creates a fresh classifier; cross-validation needs one per fold.
type Factory func() Classifier

// --- Naive Bayes ------------------------------------------------------------

// NaiveBayes is a multinomial naive Bayes classifier with Laplace
// smoothing. Like the paper's NB baseline it tends toward very high recall:
// any error-correlated feature pushes the posterior over the line.
type NaiveBayes struct {
	logPrior [2]float64
	logProb  [2]map[int]float64
	logUnk   [2]float64
	// bias shifts the decision boundary toward the positive class per
	// observed feature, matching the recall-heavy behaviour of
	// off-the-shelf NB text classifiers on short reviews (evidence
	// accumulates per feature, so a fixed offset would wash out on longer
	// reviews).
	bias float64
}

var _ Classifier = (*NaiveBayes)(nil)

// NewNaiveBayes returns an untrained NaiveBayes classifier.
func NewNaiveBayes() *NaiveBayes { return &NaiveBayes{bias: 0.55} }

// Name implements Classifier.
func (nb *NaiveBayes) Name() string { return "Naive bayes" }

// Fit implements Classifier.
func (nb *NaiveBayes) Fit(xs []FeatureVector, ys []bool) {
	var count [2]float64
	sum := [2]map[int]float64{make(map[int]float64), make(map[int]float64)}
	var total [2]float64
	vocab := make(map[int]struct{})
	for i, x := range xs {
		c := classIdx(ys[i])
		count[c]++
		for _, ft := range x {
			sum[c][ft.ID] += ft.Weight
			total[c] += ft.Weight
			vocab[ft.ID] = struct{}{}
		}
	}
	n := float64(len(xs))
	vs := float64(len(vocab)) + 1
	for c := 0; c < 2; c++ {
		nb.logPrior[c] = math.Log((count[c] + 1) / (n + 2))
		nb.logProb[c] = make(map[int]float64, len(sum[c]))
		for f, s := range sum[c] {
			nb.logProb[c][f] = math.Log((s + 1) / (total[c] + vs))
		}
		nb.logUnk[c] = math.Log(1 / (total[c] + vs))
	}
}

// Predict implements Classifier.
func (nb *NaiveBayes) Predict(x FeatureVector) bool {
	score := [2]float64{nb.logPrior[0], nb.logPrior[1] + nb.bias*float64(len(x))}
	for _, ft := range x {
		for c := 0; c < 2; c++ {
			if lp, ok := nb.logProb[c][ft.ID]; ok {
				score[c] += lp
			} else {
				score[c] += nb.logUnk[c]
			}
		}
	}
	return score[1] >= score[0]
}

func classIdx(label bool) int {
	if label {
		return 1
	}
	return 0
}

// --- Maximum entropy (logistic regression) ----------------------------------

// MaxEnt is an L2-regularized logistic regression trained with SGD.
// Mirroring the paper's MaxEnt baseline, it uses a recall-oriented decision
// threshold.
type MaxEnt struct {
	w         map[int]float64
	b         float64
	epochs    int
	lr        float64
	l2        float64
	threshold float64
	seed      int64
}

var _ Classifier = (*MaxEnt)(nil)

// NewMaxEnt returns an untrained MaxEnt classifier.
func NewMaxEnt() *MaxEnt {
	return &MaxEnt{epochs: 6, lr: 0.25, l2: 5e-4, threshold: 0.12, seed: 7}
}

// Name implements Classifier.
func (m *MaxEnt) Name() string { return "Max entropy" }

// Fit implements Classifier.
func (m *MaxEnt) Fit(xs []FeatureVector, ys []bool) {
	m.w = make(map[int]float64)
	m.b = 0
	rng := rand.New(rand.NewSource(m.seed))
	idx := make([]int, len(xs))
	for i := range idx {
		idx[i] = i
	}
	for e := 0; e < m.epochs; e++ {
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		lr := m.lr / (1 + 0.1*float64(e))
		for _, i := range idx {
			p := m.prob(xs[i])
			y := 0.0
			if ys[i] {
				y = 1
			}
			g := p - y
			for _, ft := range xs[i] {
				m.w[ft.ID] -= lr * (g*ft.Weight + m.l2*m.w[ft.ID])
			}
			m.b -= lr * g
		}
	}
}

func (m *MaxEnt) prob(x FeatureVector) float64 {
	z := m.b
	for _, ft := range x {
		z += m.w[ft.ID] * ft.Weight
	}
	return 1 / (1 + math.Exp(-z))
}

// Predict implements Classifier.
func (m *MaxEnt) Predict(x FeatureVector) bool { return m.prob(x) >= m.threshold }

// --- Linear SVM ---------------------------------------------------------------

// SVM is a linear support vector machine trained with the Pegasos
// stochastic sub-gradient algorithm on hinge loss. The weight vector is
// stored with a lazy global scale so the per-step L2 shrink is O(1).
type SVM struct {
	w      map[int]float64
	scale  float64
	b      float64
	lambda float64
	epochs int
	seed   int64
}

var _ Classifier = (*SVM)(nil)

// NewSVM returns an untrained linear SVM.
func NewSVM() *SVM { return &SVM{lambda: 1e-4, epochs: 40, seed: 11, scale: 1} }

// Name implements Classifier.
func (s *SVM) Name() string { return "SVM" }

// Fit implements Classifier.
func (s *SVM) Fit(xs []FeatureVector, ys []bool) {
	s.w = make(map[int]float64)
	s.scale = 1
	s.b = 0
	rng := rand.New(rand.NewSource(s.seed))
	t := 0
	for e := 0; e < s.epochs; e++ {
		order := rng.Perm(len(xs))
		for _, i := range order {
			t++
			eta := 1 / (s.lambda * float64(t))
			y := -1.0
			if ys[i] {
				y = 1
			}
			margin := s.b
			for _, ft := range xs[i] {
				margin += s.scale * s.w[ft.ID] * ft.Weight
			}
			// Lazy L2 shrink: fold (1 - eta*lambda) into the scale.
			shrink := 1 - eta*s.lambda
			if shrink <= 1e-12 {
				shrink = 1e-12
			}
			s.scale *= shrink
			if s.scale < 1e-9 {
				// Renormalize to keep numbers healthy.
				for f := range s.w {
					s.w[f] *= s.scale
				}
				s.scale = 1
			}
			if y*margin < 1 {
				for _, ft := range xs[i] {
					s.w[ft.ID] += eta * y * ft.Weight / s.scale
				}
				s.b += eta * y * 0.01
			}
		}
	}
}

// Predict implements Classifier.
func (s *SVM) Predict(x FeatureVector) bool {
	margin := s.b
	for _, ft := range x {
		margin += s.scale * s.w[ft.ID] * ft.Weight
	}
	return margin >= 0
}
