package textclass

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"reviewsolver/internal/textproc"
)

// This file keeps the references the classifier is checked against: a
// vectorizer that parses every sentence and counts features in a map,
// trainers that look each row's features up directly, and a pointer-tree
// walk of every tree. Transform must match the first feature for feature,
// and a forest trained through the column index must match the others node
// for node and score for score, to the bit.

// oracleTokensOf is tokensOf with every sentence parsed, including those
// without an error word.
func (v *Vectorizer) oracleTokensOf(text string) []string {
	var words []string
	for _, sentence := range textproc.SplitSentences(text) {
		if !v.negAware {
			words = append(words, textproc.Words(sentence)...)
			continue
		}
		words = v.appendUnnegated(words, sentence)
	}
	return words
}

// oracleTransform is Transform over oracleTokensOf, with the features
// counted in a map keyed by their strings and then sorted by id.
func (v *Vectorizer) oracleTransform(text string) FeatureVector {
	words := v.oracleTokensOf(text)
	counts := make(map[int]int)
	for _, f := range featuresOf(words) {
		if idx, ok := v.vocab[f]; ok {
			counts[idx]++
		}
	}
	if len(counts) == 0 {
		return nil
	}
	vec := make(FeatureVector, 0, len(counts))
	for idx, c := range counts {
		vec = append(vec, Feature{ID: idx, Weight: float64(c) / float64(len(words)) * v.idf[idx]})
	}
	slices.SortFunc(vec, func(a, b Feature) int { return cmp.Compare(a.ID, b.ID) })
	return vec
}

// featureMap is the lookup table the reference probes a vector through:
// each feature's weight by id.
func featureMap(x FeatureVector) map[int]float64 {
	m := make(map[int]float64, len(x))
	for _, ft := range x {
		m[ft.ID] = ft.Weight
	}
	return m
}

// featureMaps is featureMap of every row.
func featureMaps(xs []FeatureVector) []map[int]float64 {
	rows := make([]map[int]float64, len(xs))
	for i, x := range xs {
		rows[i] = featureMap(x)
	}
	return rows
}

// treeNode is a binary decision node splitting on feature presence
// (x[feature] > 0). Leaves hold a value: a class probability for the forest,
// a regression response for boosting.
type treeNode struct {
	feature     int
	left, right *treeNode
	value       float64
	leaf        bool
}

func (n *treeNode) eval(x map[int]float64) float64 {
	for !n.leaf {
		if x[n.feature] > 0 {
			n = n.right
		} else {
			n = n.left
		}
	}
	return n.value
}

// oracleForest is what the reference trainer of RandomForest trains.
func oracleForest(rf *RandomForest, xs []FeatureVector, ys []bool) []*treeNode {
	rows := featureMaps(xs)
	rng := rand.New(rand.NewSource(rf.seed))
	trees := make([]*treeNode, 0, rf.numTrees)
	n := len(xs)
	for t := 0; t < rf.numTrees; t++ {
		// Bootstrap sample.
		idx := make([]int, n)
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
		pool := featurePool(xs, idx)
		tree := oracleGrow(rf, rows, ys, idx, pool, 0, rng)
		trees = append(trees, tree)
	}
	return trees
}

func oracleGrow(rf *RandomForest, xs []map[int]float64, ys []bool, idx, pool []int, depth int, rng *rand.Rand) *treeNode {
	pos := 0
	for _, i := range idx {
		if ys[i] {
			pos++
		}
	}
	prob := float64(pos) / float64(len(idx))
	if depth >= rf.maxDepth || len(idx) < 2*rf.minLeaf || pos == 0 || pos == len(idx) {
		return &treeNode{leaf: true, value: prob}
	}
	// mtry = sqrt(|pool|) random candidate features.
	mtry := int(math.Sqrt(float64(len(pool)))) + 1
	bestFeature, bestGain := -1, 0.0
	parentGini := gini(pos, len(idx))
	for k := 0; k < mtry; k++ {
		f := pool[rng.Intn(len(pool))]
		lp, ln, rp, rn := 0, 0, 0, 0
		for _, i := range idx {
			if xs[i][f] > 0 {
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
		g := parentGini - (float64(ln)/total)*gini(lp, ln) - (float64(rn)/total)*gini(rp, rn)
		if g > bestGain {
			bestGain, bestFeature = g, f
		}
	}
	if bestFeature < 0 || bestGain < 1e-9 {
		return &treeNode{leaf: true, value: prob}
	}
	var li, ri []int
	for _, i := range idx {
		if xs[i][bestFeature] > 0 {
			ri = append(ri, i)
		} else {
			li = append(li, i)
		}
	}
	return &treeNode{
		feature: bestFeature,
		left:    oracleGrow(rf, xs, ys, li, pool, depth+1, rng),
		right:   oracleGrow(rf, xs, ys, ri, pool, depth+1, rng),
	}
}

// oracleForestPredict is the reference RandomForest.Predict.
func oracleForestPredict(trees []*treeNode, x map[int]float64) bool {
	sum := 0.0
	for _, t := range trees {
		sum += t.eval(x)
	}
	return sum/float64(len(trees)) >= 0.5
}

// oracleBoosted is what the reference trainer of BoostedTrees trains.
func oracleBoosted(bt *BoostedTrees, xs []FeatureVector, ys []bool) (bias float64, trees []*treeNode) {
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
	bias = math.Log(p0 / (1 - p0))
	scores := make([]float64, n)
	for i := range scores {
		scores[i] = bias
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	rng := rand.New(rand.NewSource(bt.seed))
	pool := featurePool(xs, idx)
	rows := featureMaps(xs)
	residual := make([]float64, n)
	trees = make([]*treeNode, 0, bt.numTrees)
	for t := 0; t < bt.numTrees; t++ {
		for i := range residual {
			p := sigmoid(scores[i])
			residual[i] = y[i] - p
		}
		tree := oracleGrowRegression(bt, rows, residual, idx, pool, 0, rng)
		trees = append(trees, tree)
		for i := range scores {
			scores[i] += bt.shrinkage * tree.eval(rows[i])
		}
	}
	return bias, trees
}

func oracleGrowRegression(bt *BoostedTrees, xs []map[int]float64, r []float64, idx, pool []int, depth int, rng *rand.Rand) *treeNode {
	mean := meanOf(r, idx)
	if depth >= bt.maxDepth || len(idx) < 4 {
		return &treeNode{leaf: true, value: mean}
	}
	// Sample a subset of candidate features per node.
	mtry := int(math.Sqrt(float64(len(pool))))*3 + 1
	bestFeature := -1
	bestScore := variance(r, idx) * float64(len(idx))
	parentScore := bestScore
	for k := 0; k < mtry; k++ {
		f := pool[rng.Intn(len(pool))]
		var ls, rs float64
		var lc, rc int
		for _, i := range idx {
			if xs[i][f] > 0 {
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
		// SSE after split = Σr² - (Σ_l)²/n_l - (Σ_r)²/n_r ; Σr² is common,
		// so maximize the explained part.
		var sq float64
		for _, i := range idx {
			sq += r[i] * r[i]
		}
		sse := sq - ls*ls/float64(lc) - rs*rs/float64(rc)
		if sse < bestScore-1e-12 {
			bestScore, bestFeature = sse, f
		}
	}
	if bestFeature < 0 || parentScore-bestScore < 1e-9 {
		return &treeNode{leaf: true, value: mean}
	}
	var li, ri []int
	for _, i := range idx {
		if xs[i][bestFeature] > 0 {
			ri = append(ri, i)
		} else {
			li = append(li, i)
		}
	}
	return &treeNode{
		feature: bestFeature,
		left:    oracleGrowRegression(bt, xs, r, li, pool, depth+1, rng),
		right:   oracleGrowRegression(bt, xs, r, ri, pool, depth+1, rng),
	}
}

// oracleMargin is the reference boosted score before the sigmoid.
func oracleMargin(bias, shrinkage float64, trees []*treeNode, x map[int]float64) float64 {
	score := bias
	for _, t := range trees {
		score += shrinkage * t.eval(x)
	}
	return score
}

// diffForest compares a compiled forest with reference trees node by node:
// tree count, node count per tree, leaf or split, split feature, the
// position of each right child, and leaf-value bits. It returns "" when
// they match, else the first difference.
func diffForest(f *forest, trees []*treeNode) string {
	if len(f.roots) != len(trees) {
		return fmt.Sprintf("%d trees, oracle %d", len(f.roots), len(trees))
	}
	for t, root := range trees {
		start := int(f.roots[t])
		end := len(f.nodes)
		if t+1 < len(f.roots) {
			end = int(f.roots[t+1])
		}
		var want []node
		preorder(root, &want)
		if end-start != len(want) {
			return fmt.Sprintf("tree %d: %d nodes, oracle %d", t, end-start, len(want))
		}
		for j, w := range want {
			got := f.nodes[start+j]
			switch {
			case (got.slot < 0) != (w.slot < 0):
				return fmt.Sprintf("tree %d node %d: leaf=%v, oracle leaf=%v", t, j, got.slot < 0, w.slot < 0)
			case w.slot < 0 && math.Float64bits(got.value) != math.Float64bits(w.value):
				return fmt.Sprintf("tree %d node %d: leaf %v (%#x), oracle %v (%#x)", t, j,
					got.value, math.Float64bits(got.value), w.value, math.Float64bits(w.value))
			case w.slot >= 0 && got.feature != w.feature:
				return fmt.Sprintf("tree %d node %d: splits on %d, oracle on %d", t, j, got.feature, w.feature)
			case w.slot >= 0 && int(got.right)-start != int(w.right):
				return fmt.Sprintf("tree %d node %d: right child at %d, oracle at %d", t, j, int(got.right)-start, w.right)
			case w.slot >= 0 && f.slotOf[got.feature] != got.slot:
				return fmt.Sprintf("tree %d node %d: feature %d in slot %d, slot table says %d", t, j, got.feature, got.slot, f.slotOf[got.feature])
			}
		}
	}
	return ""
}

// preorder appends the nodes of a reference tree in preorder; right holds
// the right child's offset from the tree's root and slot is -1 on leaves.
func preorder(n *treeNode, out *[]node) {
	at := len(*out)
	if n.leaf {
		*out = append(*out, node{value: n.value, slot: -1})
		return
	}
	*out = append(*out, node{feature: n.feature})
	preorder(n.left, out)
	(*out)[at].right = int32(len(*out))
	preorder(n.right, out)
}

// treesOf rebuilds a compiled forest as reference pointer trees.
func treesOf(f *forest) []*treeNode {
	var build func(i int32) *treeNode
	build = func(i int32) *treeNode {
		n := f.nodes[i]
		if n.slot < 0 {
			return &treeNode{leaf: true, value: n.value}
		}
		return &treeNode{feature: n.feature, left: build(i + 1), right: build(n.right)}
	}
	trees := make([]*treeNode, len(f.roots))
	for t, root := range f.roots {
		trees[t] = build(root)
	}
	return trees
}
