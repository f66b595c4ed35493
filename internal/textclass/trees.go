package textclass

import (
	"math"
	"math/rand"
	"sort"
)

// featurePool lists the distinct features present in a sample set, sorted
// for determinism.
func featurePool(xs []FeatureVector, idx []int) []int {
	set := make(map[int]struct{})
	for _, i := range idx {
		for f := range xs[i] {
			set[f] = struct{}{}
		}
	}
	out := make([]int, 0, len(set))
	for f := range set {
		out = append(out, f)
	}
	sort.Ints(out)
	return out
}

// columnIndex returns the column index the split searches read: for each
// feature of pool, a bitset of the rows of xs where that feature is
// positive. x[f] > 0 is the test a tree routes a vector by, so a feature
// whose key is present with a value <= 0 (a word in every document has IDF
// 0) has no row set and always routes left.
func columnIndex(xs []FeatureVector, pool []int) map[int][]uint64 {
	words := (len(xs) + 63) / 64
	backing := make([]uint64, len(pool)*words)
	cols := make(map[int][]uint64, len(pool))
	for k, f := range pool {
		cols[f] = backing[k*words : (k+1)*words : (k+1)*words]
	}
	for i, x := range xs {
		for f, v := range x {
			if col, ok := cols[f]; ok && v > 0 {
				col[i>>6] |= 1 << (i & 63)
			}
		}
	}
	return cols
}

// --- Compiled forest ----------------------------------------------------------

// node is one node of a forest. Each tree is stored in preorder, so an inner
// node's left child (split feature absent) is the node right after it.
type node struct {
	value   float64 // leaf: the response
	feature int     // inner node: the split feature
	slot    int32   // inner node: the feature's bit in a slot set; -1 marks a leaf
	right   int32   // inner node: index of the child taken when the feature is present
}

// forest is the one tree representation both ensembles train into and
// predict from: every tree's nodes in a single array, and each split feature
// mapped to a dense slot. A prediction sets one bit per present slot of the
// review and walks every tree by bit tests instead of map probes.
type forest struct {
	nodes []node
	roots []int32       // roots[t]: index of tree t's root in nodes
	slots map[int]int32 // split feature → slot
}

// stackSlotWords sizes the slot set a prediction keeps on the stack; larger
// forests allocate it.
const stackSlotWords = 64

// add appends a leaf and returns its index; split may turn it into an inner
// node once its left subtree has been grown.
func (f *forest) add(value float64) int {
	f.nodes = append(f.nodes, node{value: value, slot: -1})
	return len(f.nodes) - 1
}

// split makes node at an inner node on feature whose right subtree starts
// at the next node appended.
func (f *forest) split(at, feature int) {
	if f.slots == nil {
		f.slots = make(map[int]int32)
	}
	s, ok := f.slots[feature]
	if !ok {
		s = int32(len(f.slots))
		f.slots[feature] = s
	}
	f.nodes[at] = node{feature: feature, slot: s, right: int32(len(f.nodes))}
}

// sum returns start + Σ scale·leaf over the trees in order, each leaf being
// the one x reaches.
func (f *forest) sum(x FeatureVector, start, scale float64) float64 {
	var stack [stackSlotWords]uint64
	set := stack[:]
	if words := (len(f.slots) + 63) / 64; words > len(stack) {
		set = make([]uint64, words)
	}
	for feat, v := range x {
		if v > 0 {
			if slot, ok := f.slots[feat]; ok {
				set[slot>>6] |= 1 << (slot & 63)
			}
		}
	}
	s := start
	for _, i := range f.roots {
		n := &f.nodes[i]
		for n.slot >= 0 {
			if set[n.slot>>6]>>(n.slot&63)&1 != 0 {
				i = n.right
			} else {
				i++
			}
			n = &f.nodes[i]
		}
		s += scale * n.value
	}
	return s
}

// grower is the state one ensemble's trees share while they grow.
type grower struct {
	forest
	pool []int      // candidate split features, sorted
	cols [][]uint64 // cols[k]: the rows where pool[k] is positive
	rng  *rand.Rand
	tmp  []int // partition scratch
}

// usePool makes pool the candidate features, with their columns from index.
func (g *grower) usePool(pool []int, index map[int][]uint64) {
	g.pool = pool
	g.cols = g.cols[:0]
	for _, f := range pool {
		g.cols = append(g.cols, index[f])
	}
}

// partition reorders idx stably into the rows where col is clear, then
// those where it is set, and returns the two parts.
func (g *grower) partition(idx []int, col []uint64) (left, right []int) {
	set := g.tmp[:0]
	l := 0
	for _, i := range idx {
		if col[i>>6]>>(i&63)&1 != 0 {
			set = append(set, i)
		} else {
			idx[l] = i
			l++
		}
	}
	copy(idx[l:], set)
	return idx[:l], idx[l:]
}

// --- Random forest -----------------------------------------------------------

// RandomForest is a bagged ensemble of Gini-split decision trees over
// presence features.
type RandomForest struct {
	forest   forest
	numTrees int
	maxDepth int
	minLeaf  int
	seed     int64
}

var _ Classifier = (*RandomForest)(nil)

// NewRandomForest returns an untrained forest with the default ensemble
// size.
func NewRandomForest() *RandomForest {
	return &RandomForest{numTrees: 40, maxDepth: 14, minLeaf: 2, seed: 17}
}

// Name implements Classifier.
func (rf *RandomForest) Name() string { return "Random forest" }

// Fit implements Classifier.
func (rf *RandomForest) Fit(xs []FeatureVector, ys []bool) {
	rng := rand.New(rand.NewSource(rf.seed))
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	index := columnIndex(xs, featurePool(xs, idx))
	g := &grower{rng: rng, tmp: make([]int, 0, n)}
	for t := 0; t < rf.numTrees; t++ {
		// Bootstrap sample.
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
		g.usePool(featurePool(xs, idx), index)
		g.roots = append(g.roots, int32(len(g.nodes)))
		rf.grow(g, ys, idx, 0)
	}
	rf.forest = g.forest
}

func (rf *RandomForest) grow(g *grower, ys []bool, idx []int, depth int) {
	pos := 0
	for _, i := range idx {
		if ys[i] {
			pos++
		}
	}
	at := g.add(float64(pos) / float64(len(idx)))
	if depth >= rf.maxDepth || len(idx) < 2*rf.minLeaf || pos == 0 || pos == len(idx) || len(g.pool) == 0 {
		return
	}
	// mtry = sqrt(|pool|) random candidate features.
	mtry := int(math.Sqrt(float64(len(g.pool)))) + 1
	best, bestGain := -1, 0.0
	parentGini := gini(pos, len(idx))
	for k := 0; k < mtry; k++ {
		c := g.rng.Intn(len(g.pool))
		col := g.cols[c]
		lp, ln, rp, rn := 0, 0, 0, 0
		for _, i := range idx {
			if col[i>>6]>>(i&63)&1 != 0 {
				rn++
				if ys[i] {
					rp++
				}
			} else {
				ln++
				if ys[i] {
					lp++
				}
			}
		}
		if ln < rf.minLeaf || rn < rf.minLeaf {
			continue
		}
		total := float64(ln + rn)
		gain := parentGini - (float64(ln)/total)*gini(lp, ln) - (float64(rn)/total)*gini(rp, rn)
		if gain > bestGain {
			bestGain, best = gain, c
		}
	}
	if best < 0 || bestGain < 1e-9 {
		return
	}
	left, right := g.partition(idx, g.cols[best])
	rf.grow(g, ys, left, depth+1)
	g.split(at, g.pool[best])
	rf.grow(g, ys, right, depth+1)
}

func gini(pos, n int) float64 {
	if n == 0 {
		return 0
	}
	p := float64(pos) / float64(n)
	return 2 * p * (1 - p)
}

// Predict implements Classifier.
func (rf *RandomForest) Predict(x FeatureVector) bool {
	return rf.forest.sum(x, 0, 1)/float64(len(rf.forest.roots)) >= 0.5
}

// --- Boosted regression trees -------------------------------------------------

// BoostedTrees is a gradient-boosting ensemble of shallow regression trees
// on logistic loss — the "boosted regression trees" algorithm the paper
// selects for ReviewSolver (precision 91.4%, recall 92.0% in Table 2).
// Each iteration fits a depth-limited regression tree to the negative
// gradient (residual) and re-weights misclassified samples through the
// residuals, exactly the mechanism described in §3.2.2.
type BoostedTrees struct {
	forest    forest
	shrinkage float64
	numTrees  int
	maxDepth  int
	bias      float64
	seed      int64
}

var _ Classifier = (*BoostedTrees)(nil)

// NewBoostedTrees returns an untrained boosted ensemble.
func NewBoostedTrees() *BoostedTrees {
	return &BoostedTrees{shrinkage: 0.2, numTrees: 200, maxDepth: 6, seed: 23}
}

// Name implements Classifier.
func (bt *BoostedTrees) Name() string { return "Boosted regression trees" }

// Fit implements Classifier.
func (bt *BoostedTrees) Fit(xs []FeatureVector, ys []bool) {
	n := len(xs)
	y := make([]float64, n)
	pos := 0
	for i, label := range ys {
		if label {
			y[i] = 1
			pos++
		}
	}
	// Initial score: log-odds of the prior.
	p0 := (float64(pos) + 1) / (float64(n) + 2)
	bt.bias = math.Log(p0 / (1 - p0))
	scores := make([]float64, n)
	for i := range scores {
		scores[i] = bt.bias
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	pool := featurePool(xs, idx)
	g := &grower{rng: rand.New(rand.NewSource(bt.seed)), tmp: make([]int, 0, n)}
	g.usePool(pool, columnIndex(xs, pool))
	residual := make([]float64, n)
	// leafOf[i] is the leaf sample i reached in the tree just grown: the
	// leaf the tree routes xs[i] to, by the same presence test.
	leafOf := make([]float64, n)
	for t := 0; t < bt.numTrees; t++ {
		for i := range residual {
			p := sigmoid(scores[i])
			residual[i] = y[i] - p
		}
		// Growth partitions idx in place; every tree starts in row order.
		for i := range idx {
			idx[i] = i
		}
		g.roots = append(g.roots, int32(len(g.nodes)))
		bt.grow(g, residual, leafOf, idx, 0)
		for i := range scores {
			scores[i] += bt.shrinkage * leafOf[i]
		}
	}
	bt.forest = g.forest
}

func (bt *BoostedTrees) grow(g *grower, r, leafOf []float64, idx []int, depth int) {
	mean := meanOf(r, idx)
	at := g.add(mean)
	best := -1
	if depth < bt.maxDepth && len(idx) >= 4 && len(g.pool) > 0 {
		best = bt.bestSplit(g, r, idx)
	}
	if best < 0 {
		for _, i := range idx {
			leafOf[i] = mean
		}
		return
	}
	left, right := g.partition(idx, g.cols[best])
	bt.grow(g, r, leafOf, left, depth+1)
	g.split(at, g.pool[best])
	bt.grow(g, r, leafOf, right, depth+1)
}

// bestSplit returns the pool index of the candidate feature whose split
// explains the most of the residuals at a node, or -1 when none explains
// enough to split.
func (bt *BoostedTrees) bestSplit(g *grower, r []float64, idx []int) int {
	// Sample a subset of candidate features per node.
	mtry := int(math.Sqrt(float64(len(g.pool))))*3 + 1
	best := -1
	bestScore := variance(r, idx) * float64(len(idx))
	parentScore := bestScore
	// SSE after split = Σr² - (Σ_l)²/n_l - (Σ_r)²/n_r ; Σr² is common to
	// every candidate, so maximize the explained part.
	var sq float64
	for _, i := range idx {
		sq += r[i] * r[i]
	}
	for k := 0; k < mtry; k++ {
		c := g.rng.Intn(len(g.pool))
		col := g.cols[c]
		var ls, rs float64
		var lc, rc int
		for _, i := range idx {
			if col[i>>6]>>(i&63)&1 != 0 {
				rs += r[i]
				rc++
			} else {
				ls += r[i]
				lc++
			}
		}
		if lc < 2 || rc < 2 {
			continue
		}
		sse := sq - ls*ls/float64(lc) - rs*rs/float64(rc)
		if sse < bestScore-1e-12 {
			bestScore, best = sse, c
		}
	}
	if best < 0 || parentScore-bestScore < 1e-9 {
		return -1
	}
	return best
}

// Predict implements Classifier.
func (bt *BoostedTrees) Predict(x FeatureVector) bool {
	return sigmoid(bt.forest.sum(x, bt.bias, bt.shrinkage)) >= 0.5
}

func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

func meanOf(r []float64, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	s := 0.0
	for _, i := range idx {
		s += r[i]
	}
	return s / float64(len(idx))
}

func variance(r []float64, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	m := meanOf(r, idx)
	s := 0.0
	for _, i := range idx {
		d := r[i] - m
		s += d * d
	}
	return s / float64(len(idx))
}
