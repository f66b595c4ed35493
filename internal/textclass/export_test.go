package textclass

import (
	"fmt"
	"math"
)

// Exports for the external textclass_test package. Its tests train on synth
// corpora, and synth imports textclass, so they cannot live in this package.

// NewBoostedTreesSized returns the production boosted ensemble cut to
// numTrees trees.
func NewBoostedTreesSized(numTrees int) *BoostedTrees {
	bt := NewBoostedTrees()
	bt.numTrees = numTrees
	return bt
}

// OracleDiff trains the reference trainer with the configuration of c, a
// BoostedTrees or RandomForest already fitted on xs and ys, and compares
// the two node by node, then the score (boosting) or vote sum (forest) of
// every row of xs to the bit. It returns "" when they match, else the first
// difference.
func OracleDiff(c Classifier, xs []FeatureVector, ys []bool) string {
	switch m := c.(type) {
	case *BoostedTrees:
		bias, trees := oracleBoosted(m, xs, ys)
		if math.Float64bits(m.bias) != math.Float64bits(bias) {
			return fmt.Sprintf("bias %v, oracle %v", m.bias, bias)
		}
		if d := diffForest(&m.forest, trees); d != "" {
			return d
		}
		for i, x := range xs {
			got, want := m.forest.sum(x, m.bias, m.shrinkage), oracleMargin(bias, m.shrinkage, trees, x)
			if math.Float64bits(got) != math.Float64bits(want) {
				return fmt.Sprintf("row %d: margin %v, oracle %v", i, got, want)
			}
		}
	case *RandomForest:
		trees := oracleForest(m, xs, ys)
		if d := diffForest(&m.forest, trees); d != "" {
			return d
		}
		for i, x := range xs {
			got, want := m.forest.sum(x, 0, 1), oracleMargin(0, 1, trees, x)
			if math.Float64bits(got) != math.Float64bits(want) {
				return fmt.Sprintf("row %d: vote sum %v, oracle %v", i, got, want)
			}
			if m.Predict(x) != oracleForestPredict(trees, x) {
				return fmt.Sprintf("row %d: Predict differs from the oracle", i)
			}
		}
	default:
		return fmt.Sprintf("no oracle for %T", c)
	}
	return ""
}

// OracleWalk scores vectors on a trained BoostedTrees by walking its trees,
// rebuilt as reference pointer trees, with treeNode.eval.
type OracleWalk struct {
	bias, shrinkage float64
	trees           []*treeNode
}

// NewOracleWalk rebuilds bt's trees for OracleWalk.Score.
func NewOracleWalk(bt *BoostedTrees) *OracleWalk {
	return &OracleWalk{bias: bt.bias, shrinkage: bt.shrinkage, trees: treesOf(&bt.forest)}
}

// Score is the reference BoostedTrees.Score.
func (o *OracleWalk) Score(x FeatureVector) float64 {
	return sigmoid(oracleMargin(o.bias, o.shrinkage, o.trees, x))
}

// Score returns the positive-class probability; the review pipeline uses it
// for ranking ambiguous reviews.
func (bt *BoostedTrees) Score(x FeatureVector) float64 {
	return sigmoid(bt.forest.sum(x, bt.bias, bt.shrinkage))
}
