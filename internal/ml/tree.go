package ml

import (
	"math/rand/v2"
	"sort"
)

// TreeConfig are the CART hyperparameters tuned in Fig 6(a).
type TreeConfig struct {
	MaxDepth       int // 0 = unlimited
	MinSamplesLeaf int // default 1
	// MaxFeatures is the number of candidate features per split; 0 means
	// all features (plain decision tree), sqrt is typical for forests.
	MaxFeatures int
	Seed        uint64
}

// DecisionTree is a CART classifier with gini impurity.
type DecisionTree struct {
	Config TreeConfig
	// nodes is the tree in preorder, the layout MarshalBinary writes and
	// CompileForest lowers: nodes[0] is the root, a split's left child is
	// the next node and its right child follows the whole left subtree.
	nodes   []flatNode
	classes int
}

// flatNode is one tree node. A split has Left = its own index + 1 and Right
// = the index of its right child; a leaf has Left = Right = -1 and its class
// distribution in Proba. Its name is part of the saved format: gob writes it.
type flatNode struct {
	Feature     int
	Threshold   float64
	Left, Right int
	Proba       []float64
}

// Fit grows the tree on d.
func (t *DecisionTree) Fit(d *Dataset) {
	rows := make([]int, d.Len())
	for i := range rows {
		rows[i] = i
	}
	t.FitRows(d, rows)
}

// FitRows grows the tree on a row subset (used by the forest for bootstrap
// samples).
func (t *DecisionTree) FitRows(d *Dataset, rows []int) {
	t.classes = len(d.Classes)
	rng := rand.New(rand.NewPCG(t.Config.Seed, 0x5bf0_3635))
	minLeaf := t.Config.MinSamplesLeaf
	if minLeaf <= 0 {
		minLeaf = 1
	}
	t.nodes = nil
	t.grow(d, rows, 0, rng, minLeaf)
	t.nodes = append(make([]flatNode, 0, len(t.nodes)), t.nodes...) // a bank keeps its trees: no append slack
}

// grow appends the subtree fitted on rows in preorder.
func (t *DecisionTree) grow(d *Dataset, rows []int, depth int, rng *rand.Rand, minLeaf int) {
	counts := make([]int, t.classes)
	for _, r := range rows {
		counts[d.Y[r]]++
	}
	pure := false
	for _, c := range counts {
		if c == len(rows) {
			pure = true
		}
	}
	if pure || len(rows) < 2*minLeaf || (t.Config.MaxDepth > 0 && depth >= t.Config.MaxDepth) {
		t.leaf(counts, len(rows))
		return
	}

	feat, thresh, ok := t.bestSplit(d, rows, rng, minLeaf, counts)
	if !ok {
		t.leaf(counts, len(rows))
		return
	}
	var left, right []int
	for _, r := range rows {
		if d.X[r][feat] <= thresh {
			left = append(left, r)
		} else {
			right = append(right, r)
		}
	}
	if len(left) < minLeaf || len(right) < minLeaf {
		t.leaf(counts, len(rows))
		return
	}
	id := len(t.nodes)
	t.nodes = append(t.nodes, flatNode{Feature: feat, Threshold: thresh, Left: id + 1})
	t.grow(d, left, depth+1, rng, minLeaf)
	t.nodes[id].Right = len(t.nodes)
	t.grow(d, right, depth+1, rng, minLeaf)
}

func (t *DecisionTree) leaf(counts []int, total int) {
	proba := make([]float64, len(counts))
	if total > 0 {
		for i, c := range counts {
			proba[i] = float64(c) / float64(total)
		}
	}
	t.nodes = append(t.nodes, flatNode{Left: -1, Right: -1, Proba: proba})
}

// bestSplit searches candidate features for the gini-optimal threshold.
func (t *DecisionTree) bestSplit(d *Dataset, rows []int, rng *rand.Rand, minLeaf int, parentCounts []int) (int, float64, bool) {
	nFeat := d.NumFeatures()
	candidates := make([]int, nFeat)
	for i := range candidates {
		candidates[i] = i
	}
	if t.Config.MaxFeatures > 0 && t.Config.MaxFeatures < nFeat {
		rng.Shuffle(nFeat, func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })
		candidates = candidates[:t.Config.MaxFeatures]
	}

	type pair struct {
		v float64
		y int
	}
	bestGini := giniOf(parentCounts, len(rows))
	bestFeat, bestThresh, found := -1, 0.0, false
	pairs := make([]pair, len(rows))

	for _, f := range candidates {
		for i, r := range rows {
			pairs[i] = pair{d.X[r][f], d.Y[r]}
		}
		sort.Slice(pairs, func(i, j int) bool { return pairs[i].v < pairs[j].v })
		if pairs[0].v == pairs[len(pairs)-1].v {
			continue // constant feature
		}
		leftCounts := make([]int, t.classes)
		rightCounts := make([]int, t.classes)
		copy(rightCounts, parentCounts)
		nLeft := 0
		total := float64(len(rows))
		for i := 0; i < len(pairs)-1; i++ {
			leftCounts[pairs[i].y]++
			rightCounts[pairs[i].y]--
			nLeft++
			if pairs[i].v == pairs[i+1].v {
				continue // can only split between distinct values
			}
			if nLeft < minLeaf || len(rows)-nLeft < minLeaf {
				continue
			}
			g := (float64(nLeft)*giniOf(leftCounts, nLeft) +
				(total-float64(nLeft))*giniOf(rightCounts, len(rows)-nLeft)) / total
			if g < bestGini-1e-12 {
				bestGini = g
				bestFeat = f
				bestThresh = (pairs[i].v + pairs[i+1].v) / 2
				found = true
			}
		}
	}
	return bestFeat, bestThresh, found
}

func giniOf(counts []int, total int) float64 {
	if total == 0 {
		return 0
	}
	g := 1.0
	for _, c := range counts {
		p := float64(c) / float64(total)
		g -= p * p
	}
	return g
}

// PredictProba returns the leaf class distribution for x.
func (t *DecisionTree) PredictProba(x []float64) []float64 {
	n := &t.nodes[0]
	for n.Left >= 0 {
		if x[n.Feature] <= n.Threshold {
			n = &t.nodes[n.Left]
		} else {
			n = &t.nodes[n.Right]
		}
	}
	return n.Proba
}
