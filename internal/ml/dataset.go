// Package ml implements the machine-learning stack of the paper's §4.3 from
// scratch on the standard library: CART decision trees and random forests
// (the deployed model), k-nearest-neighbours and a multilayer perceptron
// (the compared baselines), stratified k-fold cross-validation, confusion
// matrices, and the normalized information-gain attribute ranking of §4.2.2.
package ml

import (
	"fmt"
	"math/rand/v2"
	"sort"
)

// Dataset is a labeled design matrix. Rows of X are feature vectors; Y holds
// class indices into Classes.
type Dataset struct {
	X       [][]float64
	Y       []int
	Classes []string
}

// NewDataset builds a dataset from string labels, assigning class indices in
// first-seen order.
func NewDataset(x [][]float64, labels []string) (*Dataset, error) {
	if len(x) != len(labels) {
		return nil, fmt.Errorf("ml: %d rows but %d labels", len(x), len(labels))
	}
	idx := map[string]int{}
	d := &Dataset{X: x, Y: make([]int, len(labels))}
	for i, l := range labels {
		ci, ok := idx[l]
		if !ok {
			ci = len(d.Classes)
			idx[l] = ci
			d.Classes = append(d.Classes, l)
		}
		d.Y[i] = ci
	}
	return d, nil
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.X) }

// NumFeatures returns the feature-vector width (0 for an empty dataset).
func (d *Dataset) NumFeatures() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// Subset returns a view with the given row indices (shared backing vectors).
func (d *Dataset) Subset(rows []int) *Dataset {
	x := make([][]float64, len(rows))
	y := make([]int, len(rows))
	for i, r := range rows {
		x[i] = d.X[r]
		y[i] = d.Y[r]
	}
	return &Dataset{X: x, Y: y, Classes: d.Classes}
}

// Classifier is the common interface of the three model families.
type Classifier interface {
	Fit(d *Dataset)
	// PredictProba returns per-class probabilities for one feature vector,
	// aligned with the training dataset's Classes.
	PredictProba(x []float64) []float64
}

// Predict returns the argmax class index and its probability.
func Predict(c Classifier, x []float64) (int, float64) {
	p := c.PredictProba(x)
	best, bestP := 0, -1.0
	for i, v := range p {
		if v > bestP {
			best, bestP = i, v
		}
	}
	return best, bestP
}

// StratifiedKFold splits sample indices into k folds preserving class
// balance. The returned folds partition [0, n).
func StratifiedKFold(d *Dataset, k int, rng *rand.Rand) [][]int {
	byClass := map[int][]int{}
	for i, y := range d.Y {
		byClass[y] = append(byClass[y], i)
	}
	// Iterate classes in index order: ranging over the map would consume
	// the rng in per-process-random order and make fold composition (and
	// thus cross-validated accuracies) nondeterministic across runs.
	classes := make([]int, 0, len(byClass))
	for y := range byClass {
		classes = append(classes, y)
	}
	sort.Ints(classes)
	folds := make([][]int, k)
	for _, y := range classes {
		rows := byClass[y]
		rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		for i, r := range rows {
			folds[i%k] = append(folds[i%k], r)
		}
	}
	return folds
}

// TrainTestFolds converts folds into (train, test) index pairs.
func TrainTestFolds(folds [][]int, n int) (trains, tests [][]int) {
	for fi := range folds {
		inTest := make([]bool, n)
		for _, r := range folds[fi] {
			inTest[r] = true
		}
		var train []int
		for i := 0; i < n; i++ {
			if !inTest[i] {
				train = append(train, i)
			}
		}
		trains = append(trains, train)
		tests = append(tests, folds[fi])
	}
	return trains, tests
}
