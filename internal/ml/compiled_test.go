package ml

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"
	"testing"
)

// compiledFixture trains an 11-tree forest plus its compiled form over
// fixtureDataset.
func compiledFixture(t testing.TB) (*RandomForest, *CompiledForest, *Dataset) {
	t.Helper()
	d := fixtureDataset(t)
	f, cf := fitCompiled(t, d, 11)
	return f, cf, d
}

// fitCompiled fits a forest of the given size over d and compiles it.
func fitCompiled(t testing.TB, d *Dataset, trees int) (*RandomForest, *CompiledForest) {
	t.Helper()
	f := &RandomForest{Config: ForestConfig{NumTrees: trees, MaxDepth: 7, Seed: 9}}
	f.Fit(d)
	cf, err := CompileForest(f, d.NumFeatures())
	if err != nil {
		t.Fatal(err)
	}
	return f, cf
}

// fixtureDataset is 300 rows of 8 features over 3 classes.
func fixtureDataset(t testing.TB) *Dataset {
	t.Helper()
	rng := rand.New(rand.NewPCG(5, 7))
	var x [][]float64
	var labels []string
	names := []string{"a", "b", "c"}
	for i := 0; i < 300; i++ {
		c := i % 3
		row := make([]float64, 8)
		for j := range row {
			row[j] = float64(c)*2 + rng.Float64()*3
		}
		x = append(x, row)
		labels = append(labels, names[c])
	}
	d, err := NewDataset(x, labels)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// compiledTreeCounts are the forest sizes the compiled walk is checked at:
// a lone tree, a short last lane group of eight (1, 7, 9, 15, 17), exact
// multiples of eight, and a forest of a hundred trees.
var compiledTreeCounts = []int{1, 7, 8, 9, 15, 16, 17, 100}

// TestCompiledForestMatchesReference pins that the flat-array evaluation is
// byte-identical to the reference walk at every forest size: same
// probability vectors, same argmax, for both the per-row and the batched
// entry points.
func TestCompiledForestMatchesReference(t *testing.T) {
	d := fixtureDataset(t)
	for _, trees := range compiledTreeCounts {
		t.Run(fmt.Sprintf("%d trees", trees), func(t *testing.T) {
			f, cf := fitCompiled(t, d, trees)
			checkCompiledMatchesReference(t, f, cf, d.X)
		})
	}
	// A forest fitted on one class is all lone leaves: every lane parks
	// on its root.
	t.Run("single class", func(t *testing.T) {
		one, err := NewDataset(d.X, make([]string, len(d.X)))
		if err != nil {
			t.Fatal(err)
		}
		f, cf := fitCompiled(t, one, 9)
		if cf.NumNodes() != cf.NumTrees() {
			t.Fatalf("single-class forest has %d nodes over %d trees, want lone leaves", cf.NumNodes(), cf.NumTrees())
		}
		checkCompiledMatchesReference(t, f, cf, one.X)
	})
}

// checkCompiledMatchesReference compares cf against the forest it was
// compiled from on every row of x, bitwise: through PredictProbaInto,
// PredictInto and one PredictBatchInto over all the rows.
func checkCompiledMatchesReference(t *testing.T, f *RandomForest, cf *CompiledForest, x [][]float64) {
	t.Helper()
	if cf.NumTrees() != f.NumTrees() || cf.NumClasses() != f.NumClasses() {
		t.Fatalf("compiled shape (%d trees, %d classes) != reference (%d, %d)",
			cf.NumTrees(), cf.NumClasses(), f.NumTrees(), f.NumClasses())
	}

	var refP, cP []float64
	for ri, row := range x {
		refP = f.PredictProbaInto(row, refP)
		cP = cf.PredictProbaInto(row, cP)
		if len(refP) != len(cP) {
			t.Fatalf("row %d: proba widths differ: %d vs %d", ri, len(refP), len(cP))
		}
		for i := range refP {
			if math.Float64bits(refP[i]) != math.Float64bits(cP[i]) {
				t.Fatalf("row %d class %d: compiled %v != reference %v", ri, i, cP[i], refP[i])
			}
		}
		wantC, wantConf := f.PredictInto(row, &refP)
		gotC, gotConf := cf.PredictInto(row, &cP)
		if wantC != gotC || math.Float64bits(wantConf) != math.Float64bits(gotConf) {
			t.Fatalf("row %d: compiled argmax (%d, %v) != reference (%d, %v)",
				ri, gotC, gotConf, wantC, wantConf)
		}
	}

	// Batched evaluation over all rows packed into one matrix must
	// reproduce the per-row results exactly.
	stride := len(x[0])
	rows := make([]float64, 0, len(x)*stride)
	for _, row := range x {
		rows = append(rows, row...)
	}
	out := cf.PredictBatchInto(rows, stride, nil)
	w := cf.NumClasses()
	if len(out) != len(x)*w {
		t.Fatalf("batch output has %d values, want %d", len(out), len(x)*w)
	}
	for ri, row := range x {
		refP = f.PredictProbaInto(row, refP)
		got := out[ri*w : (ri+1)*w]
		for i := range refP {
			if math.Float64bits(refP[i]) != math.Float64bits(got[i]) {
				t.Fatalf("batch row %d class %d: %v != %v", ri, i, got[i], refP[i])
			}
		}
	}
}

// TestCompiledForestSurvivesGobRoundTrip pins that compiling a deserialized
// forest (the vptrain -> registry -> vpserve path) yields the same
// predictions as compiling the original.
func TestCompiledForestSurvivesGobRoundTrip(t *testing.T) {
	f, cf, d := compiledFixture(t)
	blob, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := &RandomForest{}
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if restored.NumClasses() != f.NumClasses() {
		t.Fatalf("round-trip lost the class count: %d != %d", restored.NumClasses(), f.NumClasses())
	}
	rcf, err := CompileForest(restored, d.NumFeatures())
	if err != nil {
		t.Fatal(err)
	}
	var a, b []float64
	for ri, row := range d.X {
		a = cf.PredictProbaInto(row, a)
		b = rcf.PredictProbaInto(row, b)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("row %d class %d: restored-compiled %v != compiled %v", ri, i, b[i], a[i])
			}
		}
	}
}

// TestCompileForestErrors pins the refusal modes: an empty ensemble, a
// hand-assembled one with mixed leaf widths and a forest split on a feature
// past the rows it would walk must not compile.
func TestCompileForestErrors(t *testing.T) {
	if _, err := CompileForest(nil, 1); err == nil {
		t.Error("CompileForest(nil) did not fail")
	}
	if _, err := CompileForest(&RandomForest{}, 1); err == nil {
		t.Error("CompileForest of an untrained forest did not fail")
	}
	ragged := &RandomForest{trees: []*DecisionTree{
		{nodes: []flatNode{{Left: -1, Right: -1, Proba: []float64{1}}}, classes: 1},
		{nodes: []flatNode{{Left: -1, Right: -1, Proba: []float64{0.5, 0.5}}}, classes: 2},
	}, classes: 2}
	if _, err := CompileForest(ragged, 1); err == nil {
		t.Error("CompileForest of a ragged forest did not fail")
	}
	f, _, _ := compiledFixture(t)
	if _, err := CompileForest(f, 1); err == nil || !strings.Contains(err.Error(), "width") {
		t.Errorf("CompileForest for rows narrower than its splits: err = %v, want a width error", err)
	}
}

// TestCompiledForestSplitFeatures pins SplitFeatures to the reference
// trees' splits, and that a row's other columns cannot move a prediction:
// zeroing every unread column leaves each probability vector bitwise equal.
func TestCompiledForestSplitFeatures(t *testing.T) {
	d := fixtureDataset(t)
	for _, cfg := range []ForestConfig{
		{NumTrees: 3, MaxDepth: 2, MaxFeatures: 2, Seed: 4},
		{NumTrees: 11, MaxDepth: 7, Seed: 9},
	} {
		f := &RandomForest{Config: cfg}
		f.Fit(d)
		cf, err := CompileForest(f, d.NumFeatures())
		if err != nil {
			t.Fatal(err)
		}
		read := make([]bool, d.NumFeatures())
		for _, tr := range f.trees {
			for _, n := range tr.nodes {
				if n.Left >= 0 {
					read[n.Feature] = true
				}
			}
		}
		var want []int
		for c, ok := range read {
			if ok {
				want = append(want, c)
			}
		}
		if cfg.MaxDepth == 2 && len(want) == len(read) {
			t.Fatalf("the shallow forest reads every column %v, so zeroing unread ones checks nothing", want)
		}
		if got := cf.SplitFeatures(); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%d trees: SplitFeatures() = %v, reference splits read %v", cfg.NumTrees, got, want)
		}
		var p, pDead []float64
		dead := make([]float64, d.NumFeatures())
		for ri, row := range d.X {
			for c := range dead {
				if read[c] {
					dead[c] = row[c]
				}
			}
			p = cf.PredictProbaInto(row, p)
			pDead = cf.PredictProbaInto(dead, pDead)
			for k := range p {
				if math.Float64bits(p[k]) != math.Float64bits(pDead[k]) {
					t.Fatalf("%d trees, row %d: zeroing unread columns moved class %d from %v to %v", cfg.NumTrees, ri, k, p[k], pDead[k])
				}
			}
		}
	}
	// A forest of lone leaves reads nothing.
	one, err := NewDataset(d.X, make([]string, len(d.X)))
	if err != nil {
		t.Fatal(err)
	}
	if _, cf := fitCompiled(t, one, 9); len(cf.SplitFeatures()) != 0 {
		t.Errorf("single-class forest reads %v, want nothing", cf.SplitFeatures())
	}
}

// TestCompiledForestFootprint sanity-checks the ops-facing size accessors.
func TestCompiledForestFootprint(t *testing.T) {
	f, cf, _ := compiledFixture(t)
	if cf.NumNodes() < f.NumTrees() {
		t.Errorf("NumNodes() = %d, want at least one node per tree (%d)", cf.NumNodes(), f.NumTrees())
	}
	if cf.Bytes() <= 0 {
		t.Errorf("Bytes() = %d, want > 0", cf.Bytes())
	}
	// Every node costs at least its feat/left/right entries.
	if min := int64(cf.NumNodes()) * 12; cf.Bytes() < min {
		t.Errorf("Bytes() = %d, want >= %d for %d nodes", cf.Bytes(), min, cf.NumNodes())
	}
}

// TestCompiledForestZeroAlloc pins the serving budget: warm-scratch
// prediction — per-row and batched — allocates nothing, at the fixture's
// size and at the largest checked one.
func TestCompiledForestZeroAlloc(t *testing.T) {
	d := fixtureDataset(t)
	for _, trees := range []int{11, compiledTreeCounts[len(compiledTreeCounts)-1]} {
		t.Run(fmt.Sprintf("%d trees", trees), func(t *testing.T) {
			_, cf := fitCompiled(t, d, trees)
			var proba []float64
			cf.PredictInto(d.X[0], &proba)
			allocs := testing.AllocsPerRun(100, func() {
				cf.PredictInto(d.X[0], &proba)
			})
			if allocs != 0 {
				t.Errorf("PredictInto allocates %.1f per call, want 0", allocs)
			}

			stride := len(d.X[0])
			rows := make([]float64, 0, 32*stride)
			for _, row := range d.X[:32] {
				rows = append(rows, row...)
			}
			out := cf.PredictBatchInto(rows, stride, nil)
			allocs = testing.AllocsPerRun(100, func() {
				out = cf.PredictBatchInto(rows, stride, out)
			})
			if allocs != 0 {
				t.Errorf("PredictBatchInto allocates %.1f per call, want 0", allocs)
			}
		})
	}
}

// TestEmptyForestPredicts pins the satellite fix: an untrained forest
// reports an explicit empty distribution and a zero-value prediction instead
// of dividing by a zero tree count.
func TestEmptyForestPredicts(t *testing.T) {
	f := &RandomForest{}
	x := []float64{1, 2, 3}
	if p := f.PredictProba(x); len(p) != 0 {
		t.Errorf("PredictProba on an empty forest = %v, want empty", p)
	}
	buf := make([]float64, 4)
	if p := f.PredictProbaInto(x, buf); len(p) != 0 {
		t.Errorf("PredictProbaInto on an empty forest = %v, want empty", p)
	}
	var proba []float64
	ci, conf := f.PredictInto(x, &proba)
	if ci != 0 || conf != 0 {
		t.Errorf("PredictInto on an empty forest = (%d, %v), want (0, 0)", ci, conf)
	}
}

// TestPredictProbaIntoSizesOnce pins that the output buffer is sized from
// the fitted class count up front: an undersized buffer is replaced by one
// of exactly NumClasses, and an oversized one is reused in place.
func TestPredictProbaIntoSizesOnce(t *testing.T) {
	f, _, d := compiledFixture(t)
	out := f.PredictProbaInto(d.X[0], nil)
	if len(out) != f.NumClasses() {
		t.Fatalf("grown buffer has len %d, want %d", len(out), f.NumClasses())
	}
	big := make([]float64, 16)
	reused := f.PredictProbaInto(d.X[0], big)
	if &reused[0] != &big[0] {
		t.Error("an oversized buffer was not reused in place")
	}
	if len(reused) != f.NumClasses() {
		t.Errorf("reused buffer has len %d, want %d", len(reused), f.NumClasses())
	}
}
