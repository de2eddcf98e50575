package ml

import (
	"math"
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"
)

// referenceFit grows a tree with the sort-based split search that preceded
// the rank tables: for every node and candidate feature it sorts the node's
// (value, class) pairs and scans the boundaries between distinct values. It
// is the oracle of FuzzFitMatchesReference. Its order of NaN is whatever
// sort.Slice gives, so it is fed no NaN.
func referenceFit(cfg TreeConfig, d *Dataset, rows []int) []flatNode {
	t := &DecisionTree{Config: cfg, classes: len(d.Classes)}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x5bf0_3635))
	referenceGrow(t, d, rows, 0, rng)
	return t.nodes
}

func referenceGrow(t *DecisionTree, d *Dataset, rows []int, depth int, rng *rand.Rand) {
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
	if pure || len(rows) < 2 || (t.Config.MaxDepth > 0 && depth >= t.Config.MaxDepth) {
		t.leaf(counts, len(rows))
		return
	}
	feat, thresh, ok := referenceBestSplit(t, d, rows, rng, counts)
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
	if len(left) == 0 || len(right) == 0 {
		t.leaf(counts, len(rows))
		return
	}
	id := len(t.nodes)
	t.nodes = append(t.nodes, flatNode{Feature: feat, Threshold: thresh, Left: id + 1})
	referenceGrow(t, d, left, depth+1, rng)
	t.nodes[id].Right = len(t.nodes)
	referenceGrow(t, d, right, depth+1, rng)
}

func referenceBestSplit(t *DecisionTree, d *Dataset, rows []int, rng *rand.Rand, parentCounts []int) (int, float64, bool) {
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

// sameNodes fails unless got and want are the same tree node for node, with
// bit-equal thresholds (reflect.DeepEqual takes -0 for +0).
func sameNodes(t *testing.T, what string, got, want []flatNode) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		for i := range min(len(got), len(want)) {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s: node %d is %+v, the reference's %+v (%d and %d nodes)", what, i, got[i], want[i], len(got), len(want))
			}
		}
		t.Fatalf("%s: %d nodes, the reference %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i].Threshold) != math.Float64bits(want[i].Threshold) {
			t.Fatalf("%s: node %d threshold %v, the reference's %v", what, i, got[i].Threshold, want[i].Threshold)
		}
	}
}

// fuzzBytes hands out a fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() byte {
	if len(*b) == 0 {
		return 0
	}
	c := (*b)[0]
	*b = (*b)[1:]
	return c
}

// specials are values whose order or midpoints are easy to get wrong.
var specials = []float64{math.Copysign(0, -1), 0, math.Inf(-1), math.Inf(1), 1, -1, 0.5, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 1 + 0x1p-52}

// fuzzDataset decodes a dataset and tree settings: up to 6 columns, each
// integer-coded, continuous, constant or drawn from specials, up to 48 rows,
// some of them copies of an earlier row, and 1 to 4 classes.
func fuzzDataset(data []byte) (*Dataset, TreeConfig) {
	b := fuzzBytes(data)
	nFeat := 1 + int(b.next()%6)
	n := 2 + int(b.next()%47)
	classes := 1 + int(b.next()%4)
	b.next() // the leaf floor, a setting no more: seed inputs still decode to the same datasets
	cfg := TreeConfig{MaxDepth: int(b.next() % 8), Seed: uint64(b.next())}
	if k := int(b.next() % 8); k <= nFeat {
		cfg.MaxFeatures = k // 0 is every feature
	}
	kinds := make([]byte, nFeat)
	for f := range kinds {
		kinds[f] = b.next() % 4
	}
	d := &Dataset{X: make([][]float64, n), Y: make([]int, n)}
	for c := range classes {
		d.Classes = append(d.Classes, string(rune('a'+c)))
	}
	for r := range n {
		d.Y[r] = int(b.next()) % classes
		if r > 0 && b.next()%4 == 0 {
			d.X[r] = d.X[int(b.next())%r] // a duplicate row
			continue
		}
		row := make([]float64, nFeat)
		for f, kind := range kinds {
			switch kind {
			case 0: // integer-coded
				row[f] = float64(b.next() % 5)
			case 1: // continuous
				row[f] = (float64(int8(b.next())) + float64(b.next())/256) * 1.37
			case 2: // constant
				row[f] = 3
			default:
				row[f] = specials[int(b.next())%len(specials)]
			}
		}
		d.X[r] = row
	}
	return d, cfg
}

// FuzzFitMatchesReference pins that a tree and a forest fitted from value
// ranks are, node for node and bit for bit, the trees of the sort-based
// reference search on the same rows, seeds and settings.
func FuzzFitMatchesReference(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{5, 40, 3, 0, 0, 7, 2, 0, 1, 2, 3, 3, 0, 1, 2})
	f.Add([]byte{3, 30, 2, 2, 6, 9, 1, 3, 3, 3, 1, 0, 0, 5, 250, 3, 17, 8, 1, 9, 9, 2, 2, 0, 4, 7, 1, 1, 0, 0, 200, 100})
	f.Add([]byte{2, 46, 4, 1, 0, 4, 0, 1, 1, 7, 20, 33, 3, 1, 5, 128, 255, 0, 64, 2, 9, 1, 1, 100, 3, 200, 4, 6})
	f.Add([]byte{6, 20, 3, 3, 5, 1, 6, 3, 3, 3, 3, 3, 3, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Fuzz(func(t *testing.T, data []byte) {
		d, cfg := fuzzDataset(data)
		rows := make([]int, d.Len())
		for i := range rows {
			rows[i] = i
		}
		tree := &DecisionTree{Config: cfg}
		tree.Fit(d)
		sameNodes(t, "tree", tree.nodes, referenceFit(cfg, d, rows))

		forest := &RandomForest{Config: ForestConfig{NumTrees: 3, MaxDepth: cfg.MaxDepth, MaxFeatures: cfg.MaxFeatures, Seed: cfg.Seed}}
		forest.Fit(d)
		for ti, member := range forest.trees {
			tc, rows := forest.Config.member(ti, member.Config.MaxFeatures, d.Len())
			if tc != member.Config {
				t.Fatalf("tree %d: config %+v, member %+v", ti, member.Config, tc)
			}
			sameNodes(t, "forest", member.nodes, referenceFit(tc, d, rows))
		}
	})
}

// TestFitMatchesReferenceOnBlobs runs the oracle on continuous columns with
// hundreds of distinct values each, under the defaults and with sqrt
// features per split.
func TestFitMatchesReferenceOnBlobs(t *testing.T) {
	d := synthBlobs(600, 31, 2.5)
	rows := make([]int, d.Len())
	for i := range rows {
		rows[i] = i
	}
	for _, cfg := range []TreeConfig{{}, {MaxDepth: 6, MaxFeatures: 1, Seed: 4}} {
		tree := &DecisionTree{Config: cfg}
		tree.Fit(d)
		sameNodes(t, "blobs", tree.nodes, referenceFit(cfg, d, rows))
	}
}

// TestFitSendsNaNRight pins Fit's NaN rule: NaN ranks above every number,
// so a split between the largest number and NaN sits at that number and
// sends NaN right, as x <= t does at predict.
func TestFitSendsNaNRight(t *testing.T) {
	nan := math.NaN()
	x := [][]float64{{1, 0}, {nan, 0}, {2, 0}, {nan, 1}, {math.Inf(1), 1}, {nan, 0}}
	d, err := NewDataset(x, []string{"num", "nan", "num", "nan", "num", "nan"})
	if err != nil {
		t.Fatal(err)
	}
	tree := &DecisionTree{}
	tree.Fit(d)
	root := tree.nodes[0]
	if root.Feature != 0 || root.Threshold != math.Inf(1) || len(tree.nodes) != 3 {
		t.Fatalf("nodes %+v: want one split on feature 0 at +Inf", tree.nodes)
	}
	for i, row := range x {
		if got := tree.PredictProba(row)[d.Y[i]]; got != 1 {
			t.Errorf("row %v: P(%s) = %v, want 1", row, d.Classes[d.Y[i]], got)
		}
	}
}
