package ml

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"
)

// synthBlobs builds a well-separated 3-class dataset with some noise.
func synthBlobs(n int, seed uint64, noise float64) *Dataset {
	rng := rand.New(rand.NewPCG(seed, 7))
	centers := [][]float64{{0, 0, 5}, {10, 0, 0}, {0, 10, 2}}
	labels := []string{"a", "b", "c"}
	var x [][]float64
	var y []string
	for i := 0; i < n; i++ {
		c := i % 3
		row := make([]float64, 3)
		for j := range row {
			row[j] = centers[c][j] + rng.NormFloat64()*noise
		}
		x = append(x, row)
		y = append(y, labels[c])
	}
	d, _ := NewDataset(x, y)
	return d
}

// xorDataset is not linearly separable; trees and MLPs must still learn it.
func xorDataset(n int, seed uint64) *Dataset {
	rng := rand.New(rand.NewPCG(seed, 13))
	var x [][]float64
	var y []string
	for i := 0; i < n; i++ {
		a, b := rng.Float64(), rng.Float64()
		label := "same"
		if (a > 0.5) != (b > 0.5) {
			label = "diff"
		}
		x = append(x, []float64{a, b})
		y = append(y, label)
	}
	d, _ := NewDataset(x, y)
	return d
}

func TestNewDatasetErrors(t *testing.T) {
	if _, err := NewDataset([][]float64{{1}}, []string{"a", "b"}); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestDecisionTreeLearnsBlobs(t *testing.T) {
	d := synthBlobs(300, 1, 0.5)
	tree := &DecisionTree{Config: TreeConfig{MaxDepth: 8}}
	tree.Fit(d)
	res := Evaluate(tree, d)
	if res.Accuracy < 0.99 {
		t.Errorf("train accuracy = %.3f", res.Accuracy)
	}
}

func TestDecisionTreeXOR(t *testing.T) {
	train := xorDataset(400, 2)
	test := xorDataset(200, 3)
	tree := &DecisionTree{Config: TreeConfig{MaxDepth: 10}}
	tree.Fit(train)
	res := EvaluateTransfer(tree, train.Classes, test)
	if res.Accuracy < 0.9 {
		t.Errorf("XOR test accuracy = %.3f", res.Accuracy)
	}
}

func TestDecisionTreeDepthLimit(t *testing.T) {
	d := synthBlobs(300, 4, 2.0)
	tree := &DecisionTree{Config: TreeConfig{MaxDepth: 2}}
	tree.Fit(d)
	if got := depthOf(tree.nodes, 0); got > 2 {
		t.Errorf("depth = %d, want <= 2", got)
	}
}

// depthOf is the maximum depth of the subtree at nodes[i] (a leaf = 0).
func depthOf(nodes []flatNode, i int) int {
	if nodes[i].Left < 0 {
		return 0
	}
	return 1 + max(depthOf(nodes, nodes[i].Left), depthOf(nodes, nodes[i].Right))
}

func TestDecisionTreeSingleClass(t *testing.T) {
	d, _ := NewDataset([][]float64{{1}, {2}, {3}}, []string{"x", "x", "x"})
	tree := &DecisionTree{}
	tree.Fit(d)
	p := tree.PredictProba([]float64{5})
	if p[0] != 1 {
		t.Errorf("proba = %v", p)
	}
}

func TestDecisionTreeConstantFeatures(t *testing.T) {
	// All features identical: must produce a leaf, not loop.
	d, _ := NewDataset([][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}},
		[]string{"a", "b", "a", "b"})
	tree := &DecisionTree{Config: TreeConfig{MaxDepth: 5}}
	tree.Fit(d)
	p := tree.PredictProba([]float64{1, 1})
	if math.Abs(p[0]-0.5) > 1e-9 || math.Abs(p[1]-0.5) > 1e-9 {
		t.Errorf("proba = %v, want [0.5 0.5]", p)
	}
}

func TestRandomForestBeatsNoise(t *testing.T) {
	train := synthBlobs(300, 5, 2.5)
	test := synthBlobs(150, 6, 2.5)
	f := &RandomForest{Config: ForestConfig{NumTrees: 30, MaxDepth: 10, Seed: 1}}
	f.Fit(train)
	if f.NumTrees() != 30 {
		t.Fatalf("trees = %d", f.NumTrees())
	}
	res := EvaluateTransfer(f, train.Classes, test)
	if res.Accuracy < 0.95 {
		t.Errorf("forest accuracy = %.3f", res.Accuracy)
	}
}

func TestForestProbaSumsToOne(t *testing.T) {
	d := synthBlobs(120, 7, 1.0)
	f := &RandomForest{Config: ForestConfig{NumTrees: 10, MaxDepth: 6, Seed: 2}}
	f.Fit(d)
	fn := func(a, b, c float64) bool {
		p := f.PredictProba([]float64{a * 10, b * 10, c * 10})
		var sum float64
		for _, v := range p {
			if v < 0 || v > 1 {
				return false
			}
			sum += v
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestForestDeterministicWithSeed(t *testing.T) {
	d := synthBlobs(150, 8, 1.5)
	mk := func() []float64 {
		f := &RandomForest{Config: ForestConfig{NumTrees: 8, MaxDepth: 6, Seed: 42}}
		f.Fit(d)
		return f.PredictProba([]float64{5, 5, 2})
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded forests disagree: %v vs %v", a, b)
		}
	}
}

func TestKNNLearnsBlobs(t *testing.T) {
	train := synthBlobs(300, 9, 1.0)
	test := synthBlobs(150, 10, 1.0)
	k := &KNN{}
	k.Fit(train)
	res := EvaluateTransfer(k, train.Classes, test)
	if res.Accuracy < 0.95 {
		t.Errorf("knn accuracy = %.3f", res.Accuracy)
	}
}

func TestKNNKLargerThanTrainingSet(t *testing.T) {
	d, _ := NewDataset([][]float64{{0}, {1}}, []string{"a", "b"})
	k := &KNN{} // fewer rows than neighbours
	k.Fit(d)
	p := k.PredictProba([]float64{0.1})
	if len(p) != 2 {
		t.Fatalf("proba = %v", p)
	}
}

func TestMLPLearnsBlobs(t *testing.T) {
	train := synthBlobs(300, 11, 1.0)
	test := synthBlobs(150, 12, 1.0)
	m := &MLP{Config: MLPConfig{Hidden: []int{16}, Epochs: 80, Seed: 3}}
	m.Fit(train)
	res := EvaluateTransfer(m, train.Classes, test)
	if res.Accuracy < 0.9 {
		t.Errorf("mlp accuracy = %.3f", res.Accuracy)
	}
}

// TestMLPActivations: XOR is not linearly separable, so only the hidden
// layers' ReLU lets the network fit it.
func TestMLPActivations(t *testing.T) {
	train := xorDataset(500, 13)
	m := &MLP{Config: MLPConfig{Hidden: []int{16, 8}, Epochs: 150, Seed: 4}}
	m.Fit(train)
	if res := Evaluate(m, train); res.Accuracy < 0.85 {
		t.Errorf("XOR train accuracy = %.3f", res.Accuracy)
	}
}

func TestCrossValidate(t *testing.T) {
	d := synthBlobs(200, 14, 1.0)
	res := CrossValidate(func() Classifier {
		return &RandomForest{Config: ForestConfig{NumTrees: 10, MaxDepth: 8, Seed: 5}}
	}, d, 10, 99)
	if res.Accuracy < 0.95 {
		t.Errorf("10-fold accuracy = %.3f", res.Accuracy)
	}
	// Every sample appears exactly once in the confusion matrix.
	var total int
	for _, row := range res.Confusion.M {
		for _, v := range row {
			total += v
		}
	}
	if total != d.Len() {
		t.Errorf("confusion total = %d, want %d", total, d.Len())
	}
}

func TestStratifiedKFoldPartition(t *testing.T) {
	d := synthBlobs(101, 15, 1.0)
	rng := rand.New(rand.NewPCG(1, 2))
	folds := StratifiedKFold(d, 10, rng)
	seen := map[int]int{}
	for _, f := range folds {
		for _, r := range f {
			seen[r]++
		}
	}
	if len(seen) != d.Len() {
		t.Fatalf("folds cover %d samples, want %d", len(seen), d.Len())
	}
	for r, c := range seen {
		if c != 1 {
			t.Fatalf("row %d appears %d times", r, c)
		}
	}
}

func TestConfusionMatrix(t *testing.T) {
	cm := NewConfusionMatrix([]string{"a", "b"})
	cm.Add(0, 0)
	cm.Add(0, 0)
	cm.Add(0, 1)
	cm.Add(1, 1)
	if acc := cm.Accuracy(); math.Abs(acc-0.75) > 1e-9 {
		t.Errorf("accuracy = %v", acc)
	}
	if r := cm.Recall(0); math.Abs(r-2.0/3) > 1e-9 {
		t.Errorf("recall(a) = %v", r)
	}
	norm := cm.RowNormalized()
	if math.Abs(norm[1][1]-1) > 1e-9 {
		t.Errorf("norm = %v", norm)
	}
	if cm.String() == "" {
		t.Error("empty String")
	}
}

func TestMedianConfidence(t *testing.T) {
	e := &EvalResult{CorrectConf: []float64{0.9, 0.8, 1.0}, IncorrectConf: []float64{0.4, 0.6}}
	c, i := e.MedianConfidence()
	if c != 0.9 || i != 0.5 {
		t.Errorf("medians = %v, %v", c, i)
	}
	empty := &EvalResult{}
	c, i = empty.MedianConfidence()
	if !math.IsNaN(c) || !math.IsNaN(i) {
		t.Errorf("empty medians = %v %v, want NaN", c, i)
	}
}

func TestInformationGain(t *testing.T) {
	// Column 0 fully determines the label, column 1 is pure noise, column 2
	// is partially informative.
	rng := rand.New(rand.NewPCG(16, 1))
	var x [][]float64
	var y []string
	for i := 0; i < 500; i++ {
		c := i % 2
		noisy := float64(c)
		if rng.Float64() < 0.3 {
			noisy = 1 - noisy
		}
		x = append(x, []float64{float64(c), rng.Float64(), noisy})
		y = append(y, []string{"a", "b"}[c])
	}
	d, _ := NewDataset(x, y)
	gains := InformationGain(d, 32)
	if gains[0] < 0.99 {
		t.Errorf("perfect column gain = %v", gains[0])
	}
	if gains[1] > 0.15 {
		t.Errorf("noise column gain = %v", gains[1])
	}
	if gains[2] < gains[1] || gains[2] > gains[0] {
		t.Errorf("partial column gain = %v not between noise %v and perfect %v",
			gains[2], gains[1], gains[0])
	}
}

// TestInformationGainBitIdentical pins that equal inputs give equal gains to
// the last bit: rankAttributes breaks ties between attributes on exact
// equality, so a gain that wobbles in its last bits reorders Fig 5 and moves
// Fig 6(a) from run to run.
func TestInformationGainBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewPCG(27, 3))
	classes := []string{"a", "b", "c", "d", "e", "f"}
	var x [][]float64
	var y []string
	for i := 0; i < 600; i++ {
		row := make([]float64, 8)
		for j := range row {
			row[j] = float64(rng.IntN(40)) // many (bin, class) cells per column
		}
		x = append(x, row)
		y = append(y, classes[rng.IntN(len(classes))])
	}
	d, _ := NewDataset(x, y)
	first := InformationGain(d, 64)
	for run := 0; run < 10; run++ {
		for j, g := range InformationGain(d, 64) {
			if math.Float64bits(g) != math.Float64bits(first[j]) {
				t.Fatalf("run %d: column %d gain %v (%#x), first run %v (%#x)",
					run, j, g, math.Float64bits(g), first[j], math.Float64bits(first[j]))
			}
		}
	}
}

func TestAttributeImportanceAggregation(t *testing.T) {
	gains := []float64{0.1, 0.9, 0.3}
	imp := AttributeImportance(gains, map[string][]int{"m3": {0, 1}, "t1": {2}})
	if imp["m3"] != 0.9 || imp["t1"] != 0.3 {
		t.Errorf("importance = %v", imp)
	}
}

func TestForestSerializationRoundTrip(t *testing.T) {
	d := synthBlobs(150, 18, 1.0)
	f := &RandomForest{Config: ForestConfig{NumTrees: 7, MaxDepth: 6, Seed: 6}}
	f.Fit(d)
	blob, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var g RandomForest
	if err := g.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		x := []float64{float64(i), float64(20 - i), float64(i % 5)}
		pa := f.PredictProba(x)
		pb := g.PredictProba(x)
		for j := range pa {
			if math.Abs(pa[j]-pb[j]) > 1e-12 {
				t.Fatalf("prediction differs after round trip: %v vs %v", pa, pb)
			}
		}
	}
	if err := g.UnmarshalBinary([]byte("garbage")); err == nil {
		t.Error("garbage accepted")
	}
}

// BenchmarkForestFit fits small blobs, and a continuous dataset whose every
// column has about 24,000 distinct values: split search must not cost in
// proportion to a column's distinct values across the whole dataset.
func BenchmarkForestFit(b *testing.B) {
	for _, c := range []struct {
		name string
		d    *Dataset
		cfg  ForestConfig
	}{
		{"blobs", synthBlobs(500, 19, 1.0), ForestConfig{NumTrees: 20, MaxDepth: 10, Seed: 7}},
		{"continuous", synthBlobs(24000, 23, 4.0), ForestConfig{NumTrees: 4, MaxDepth: 12, Seed: 7}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				f := &RandomForest{Config: c.cfg}
				f.Fit(c.d)
			}
		})
	}
}

// Evaluate scores a trained classifier on test data whose class universe
// matches the training set.
func Evaluate(c Classifier, test *Dataset) *EvalResult {
	res := &EvalResult{Confusion: NewConfusionMatrix(test.Classes)}
	for i, x := range test.X {
		pred, conf := Predict(c, x)
		res.Confusion.Add(test.Y[i], pred)
		if pred == test.Y[i] {
			res.CorrectConf = append(res.CorrectConf, conf)
		} else {
			res.IncorrectConf = append(res.IncorrectConf, conf)
		}
	}
	res.Accuracy = res.Confusion.Accuracy()
	return res
}
