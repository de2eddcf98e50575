package ml

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strings"
)

// ConfusionMatrix accumulates per-class prediction counts; M[i][j] counts
// samples of true class i predicted as class j (Fig 6(b–d)).
type ConfusionMatrix struct {
	Classes []string
	M       [][]int
}

// NewConfusionMatrix returns an empty matrix over classes.
func NewConfusionMatrix(classes []string) *ConfusionMatrix {
	m := make([][]int, len(classes))
	for i := range m {
		m[i] = make([]int, len(classes))
	}
	return &ConfusionMatrix{Classes: classes, M: m}
}

// Add records one prediction.
func (c *ConfusionMatrix) Add(trueClass, predClass int) { c.M[trueClass][predClass]++ }

// Accuracy is the trace over the total.
func (c *ConfusionMatrix) Accuracy() float64 {
	var correct, total int
	for i := range c.M {
		for j, v := range c.M[i] {
			total += v
			if i == j {
				correct += v
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(correct) / float64(total)
}

// Recall returns the per-class recall (the diagonal of the row-normalized
// matrix the paper plots).
func (c *ConfusionMatrix) Recall(class int) float64 {
	var rowTotal int
	for _, v := range c.M[class] {
		rowTotal += v
	}
	if rowTotal == 0 {
		return 0
	}
	return float64(c.M[class][class]) / float64(rowTotal)
}

// RowNormalized returns the matrix with rows normalized to 1.
func (c *ConfusionMatrix) RowNormalized() [][]float64 {
	out := make([][]float64, len(c.M))
	for i := range c.M {
		out[i] = make([]float64, len(c.M[i]))
		var total int
		for _, v := range c.M[i] {
			total += v
		}
		if total == 0 {
			continue
		}
		for j, v := range c.M[i] {
			out[i][j] = float64(v) / float64(total)
		}
	}
	return out
}

// String renders the row-normalized matrix compactly.
func (c *ConfusionMatrix) String() string {
	var b strings.Builder
	norm := c.RowNormalized()
	w := 0
	for _, cl := range c.Classes {
		if len(cl) > w {
			w = len(cl)
		}
	}
	for i, row := range norm {
		fmt.Fprintf(&b, "%-*s", w+1, c.Classes[i])
		for _, v := range row {
			fmt.Fprintf(&b, " %4.2f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// EvalResult is the outcome of one evaluation pass.
type EvalResult struct {
	Accuracy  float64
	Confusion *ConfusionMatrix
	// Confidences of correct and incorrect predictions, for Table 4.
	CorrectConf, IncorrectConf []float64
}

// MedianConfidence returns the medians of the correct and incorrect
// confidence populations (Table 4), or NaN for empty populations.
func (e *EvalResult) MedianConfidence() (correct, incorrect float64) {
	return median(e.CorrectConf), median(e.IncorrectConf)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64{}, xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// CrossValidate runs stratified k-fold cross-validation (10-fold in §4.3.1),
// training a fresh classifier per fold via factory, and aggregates the
// results over all folds.
func CrossValidate(factory func() Classifier, d *Dataset, k int, seed uint64) *EvalResult {
	rng := rand.New(rand.NewPCG(seed, 0xcf01d))
	folds := StratifiedKFold(d, k, rng)
	trains, tests := TrainTestFolds(folds, d.Len())
	res := &EvalResult{Confusion: NewConfusionMatrix(d.Classes)}
	for fi := range folds {
		c := factory()
		c.Fit(d.Subset(trains[fi]))
		for _, r := range tests[fi] {
			pred, conf := Predict(c, d.X[r])
			res.Confusion.Add(d.Y[r], pred)
			if pred == d.Y[r] {
				res.CorrectConf = append(res.CorrectConf, conf)
			} else {
				res.IncorrectConf = append(res.IncorrectConf, conf)
			}
		}
	}
	res.Accuracy = res.Confusion.Accuracy()
	return res
}

// EvaluateTransfer scores a classifier trained on one dataset against a test
// set that may use a different class ordering (e.g. the open-set dataset).
// Test labels absent from the training classes count as errors.
func EvaluateTransfer(c Classifier, trainClasses []string, test *Dataset) *EvalResult {
	res := &EvalResult{Confusion: NewConfusionMatrix(test.Classes)}
	trainIdx := map[string]int{}
	for i, cl := range trainClasses {
		trainIdx[cl] = i
	}
	// Map training class index -> test class index where possible.
	toTest := make([]int, len(trainClasses))
	testIdx := map[string]int{}
	for i, cl := range test.Classes {
		testIdx[cl] = i
	}
	for i, cl := range trainClasses {
		if j, ok := testIdx[cl]; ok {
			toTest[i] = j
		} else {
			toTest[i] = -1
		}
	}
	for i, x := range test.X {
		pred, conf := Predict(c, x)
		predTest := toTest[pred]
		if predTest < 0 {
			predTest = (test.Y[i] + 1) % len(test.Classes) // guaranteed wrong
		}
		res.Confusion.Add(test.Y[i], predTest)
		if predTest == test.Y[i] {
			res.CorrectConf = append(res.CorrectConf, conf)
		} else {
			res.IncorrectConf = append(res.IncorrectConf, conf)
		}
	}
	res.Accuracy = res.Confusion.Accuracy()
	return res
}
