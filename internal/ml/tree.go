package ml

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
)

// TreeConfig are the CART hyperparameters tuned in Fig 6(a).
type TreeConfig struct {
	MaxDepth int // 0 = unlimited
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

// Fit grows the tree on d. A NaN feature value ranks above every number,
// so no split sends it left: x <= t is false for it, as at predict.
func (t *DecisionTree) Fit(d *Dataset) {
	rows := make([]int, d.Len())
	for i := range rows {
		rows[i] = i
	}
	t.fit(d, rankColumns(d), rows)
}

// columns is a dataset's feature matrix as value ranks. The rank of X[r][f]
// is its index among column f's sorted distinct numbers (-0 and +0 are one),
// and NaN ranks above them all. A forest ranks once; its trees share the
// table read-only.
type columns struct {
	rank    [][]int32   // rank[f][r]
	value   [][]float64 // value[f][k]: column f's number of rank k
	used    []int       // used[f]: the ranks column f holds, NaN's included
	maxUsed int         // the most ranks any column holds
}

// rankColumns ranks every column of d. It gathers a column's distinct
// numbers in a hash table and sorts only those, so a column of a few integer
// codes costs a pass over its rows, not a sort of them.
func rankColumns(d *Dataset) *columns {
	n, nFeat := d.Len(), d.NumFeatures()
	c := &columns{rank: make([][]int32, nFeat), value: make([][]float64, nFeat), used: make([]int, nFeat)}
	ranks := make([]int32, n*nFeat)
	// slots is an open-addressing table of the column's distinct numbers,
	// at most half full: a slot holds 1 + the number's index in seen.
	shift := 64 - bits.Len(uint(2*n))
	slots := make([]int32, 1<<(64-shift))
	mask := len(slots) - 1
	var seen []float64
	var remap []int32
	for f := range nFeat {
		clear(slots)
		seen = seen[:0]
		rank := ranks[f*n : (f+1)*n : (f+1)*n]
		nan := false
		for r, x := range d.X {
			v := x[f]
			if math.IsNaN(v) {
				rank[r] = -1
				nan = true
				continue
			}
			if v == 0 {
				v = 0 // -0 and +0 are one number
			}
			h := int(math.Float64bits(v) * 0x9e3779b97f4a7c15 >> shift)
			for slots[h] != 0 && seen[slots[h]-1] != v {
				h = (h + 1) & mask
			}
			if slots[h] == 0 {
				seen = append(seen, v)
				slots[h] = int32(len(seen))
			}
			rank[r] = slots[h] - 1
		}
		value := slices.Clone(seen)
		slices.Sort(value)
		remap = remap[:0]
		for _, v := range seen {
			k, _ := slices.BinarySearch(value, v)
			remap = append(remap, int32(k))
		}
		for r, id := range rank {
			if id < 0 {
				rank[r] = int32(len(value)) // NaN
			} else {
				rank[r] = remap[id]
			}
		}
		c.rank[f], c.value[f] = rank, value
		c.used[f] = len(value)
		if nan {
			c.used[f]++
		}
		c.maxUsed = max(c.maxUsed, c.used[f])
	}
	return c
}

// fit grows the tree on rows of d, which it reorders; cols is d ranked.
func (t *DecisionTree) fit(d *Dataset, cols *columns, rows []int) {
	t.classes = len(d.Classes)
	g := &grower{
		t: t, d: d, cols: cols,
		rng:     rand.New(rand.NewPCG(t.Config.Seed, 0x5bf0_3635)),
		counts:  make([]int, t.classes),
		left:    make([]int, t.classes),
		right:   make([]int, t.classes),
		ys:      make([]int, len(rows)),
		cand:    make([]int, len(cols.rank)),
		perRank: make([]int, cols.maxUsed),
		hist:    make([]int, cols.maxUsed*t.classes),
	}
	t.nodes = nil
	g.grow(rows, 0)
	t.nodes = append(make([]flatNode, 0, len(t.nodes)), t.nodes...) // a bank keeps its trees: no append slack
}

// grower is one fit's state. Its scratch is sized once and reused at every
// node; perRank and hist are all zero between candidate features.
type grower struct {
	t    *DecisionTree
	d    *Dataset
	cols *columns
	rng  *rand.Rand

	counts      []int   // the node's rows per class
	ys          []int   // ys[i]: the class of the node's i-th row
	left, right []int   // rows per class either side of a boundary
	cand        []int   // the node's candidate features
	present     []int32 // the ranks present in the node
	perRank     []int   // the node's rows per rank
	hist        []int   // the node's rows per (rank, class), rank-major
}

// grow appends the subtree fitted on rows in preorder. It partitions rows in
// place, left side first; a split leaves at least one row on either side.
func (g *grower) grow(rows []int, depth int) {
	t := g.t
	clear(g.counts)
	ys := g.ys[:len(rows)]
	for i, r := range rows {
		ys[i] = g.d.Y[r]
		g.counts[ys[i]]++
	}
	pure := false
	for _, c := range g.counts {
		if c == len(rows) {
			pure = true
		}
	}
	if pure || len(rows) < 2 || (t.Config.MaxDepth > 0 && depth >= t.Config.MaxDepth) {
		t.leaf(g.counts, len(rows))
		return
	}

	feat, thresh, ok := g.bestSplit(rows)
	if !ok {
		t.leaf(g.counts, len(rows))
		return
	}
	nLeft := 0
	for i, r := range rows {
		if g.d.X[r][feat] <= thresh {
			rows[i], rows[nLeft] = rows[nLeft], r
			nLeft++
		}
	}
	if nLeft == 0 || nLeft == len(rows) { // the midpoint rounded or overflowed past one value
		t.leaf(g.counts, len(rows))
		return
	}
	id := len(t.nodes)
	t.nodes = append(t.nodes, flatNode{Feature: feat, Threshold: thresh, Left: id + 1})
	g.grow(rows[:nLeft], depth+1)
	t.nodes[id].Right = len(t.nodes)
	g.grow(rows[nLeft:], depth+1)
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

// bestSplit searches candidate features for the gini-optimal threshold. For
// each it counts the node's rows per (rank, class) and walks the ranks
// present in ascending order, so its cost follows the node's rows, not the
// column's distinct values. Thresholds lie midway between the neighbouring
// values present; below NaN, the threshold is the largest number.
func (g *grower) bestSplit(rows []int) (int, float64, bool) {
	nFeat := len(g.cand)
	candidates := g.cand
	for i := range candidates {
		candidates[i] = i
	}
	if mf := g.t.Config.MaxFeatures; mf > 0 && mf < nFeat {
		g.rng.Shuffle(nFeat, func(i, j int) { candidates[i], candidates[j] = candidates[j], candidates[i] })
		candidates = candidates[:mf]
	}

	classes := len(g.counts)
	n := len(rows)
	ys := g.ys[:n]
	total := float64(n)
	bestGini := giniOf(g.counts, n)
	bestFeat, bestThresh, found := -1, 0.0, false

	for _, f := range candidates {
		if g.cols.used[f] < 2 {
			continue // constant over the whole dataset
		}
		rank := g.cols.rank[f]
		present := g.present[:0]
		for i, r := range rows {
			k := rank[r]
			if g.perRank[k] == 0 {
				present = append(present, k)
			}
			g.perRank[k]++
			g.hist[int(k)*classes+ys[i]]++
		}
		g.present = present
		if len(present) > 1 { // else constant over the node
			slices.Sort(present)
			copy(g.right, g.counts)
			clear(g.left)
			nLeft := 0
			for i, k := range present[:len(present)-1] {
				for c, m := range g.hist[int(k)*classes : int(k+1)*classes] {
					g.left[c] += m
					g.right[c] -= m
				}
				nLeft += g.perRank[k]
				gini := (float64(nLeft)*giniOf(g.left, nLeft) +
					(total-float64(nLeft))*giniOf(g.right, n-nLeft)) / total
				if gini < bestGini-1e-12 {
					bestGini = gini
					bestFeat = f
					bestThresh = g.threshold(f, k, present[i+1])
					found = true
				}
			}
		}
		for _, k := range present {
			g.perRank[k] = 0
			clear(g.hist[int(k)*classes : int(k+1)*classes])
		}
	}
	return bestFeat, bestThresh, found
}

// threshold is the split between ranks lo < hi of feature f.
func (g *grower) threshold(f int, lo, hi int32) float64 {
	value := g.cols.value[f]
	if int(hi) == len(value) { // NaN
		return value[lo]
	}
	return (value[lo] + value[hi]) / 2
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
