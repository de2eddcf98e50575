package ml

import (
	"math"
	"sort"
)

// neighbours is the K of §4.3.1's neighbour classifier.
const neighbours = 5

// KNN is a k-nearest-neighbours classifier with per-feature standardization
// (z-scores), which Euclidean distance requires on mixed-scale handshake
// attributes. Its neighbours vote with weights inversely proportional to
// their distance.
type KNN struct {
	x       [][]float64
	y       []int
	classes int
	mean    []float64
	std     []float64
}

// Fit memorizes the standardized training set.
func (k *KNN) Fit(d *Dataset) {
	n, m := d.Len(), d.NumFeatures()
	k.classes = len(d.Classes)
	k.mean = make([]float64, m)
	k.std = make([]float64, m)
	for _, row := range d.X {
		for j, v := range row {
			k.mean[j] += v
		}
	}
	for j := range k.mean {
		k.mean[j] /= float64(n)
	}
	for _, row := range d.X {
		for j, v := range row {
			dv := v - k.mean[j]
			k.std[j] += dv * dv
		}
	}
	for j := range k.std {
		k.std[j] = math.Sqrt(k.std[j] / float64(n))
		if k.std[j] == 0 {
			k.std[j] = 1
		}
	}
	k.x = make([][]float64, n)
	for i, row := range d.X {
		k.x[i] = k.standardize(row)
	}
	k.y = d.Y
}

func (k *KNN) standardize(row []float64) []float64 {
	out := make([]float64, len(row))
	for j, v := range row {
		out[j] = (v - k.mean[j]) / k.std[j]
	}
	return out
}

// PredictProba votes among the nearest training samples.
func (k *KNN) PredictProba(x []float64) []float64 {
	kk := min(neighbours, len(k.x))
	q := k.standardize(x)
	type nb struct {
		dist float64
		y    int
	}
	nbs := make([]nb, len(k.x))
	for i, row := range k.x {
		var d2 float64
		for j := range row {
			dv := row[j] - q[j]
			d2 += dv * dv
		}
		nbs[i] = nb{d2, k.y[i]}
	}
	sort.Slice(nbs, func(i, j int) bool { return nbs[i].dist < nbs[j].dist })

	proba := make([]float64, k.classes)
	var total float64
	for i := 0; i < kk; i++ {
		w := 1.0 / (math.Sqrt(nbs[i].dist) + 1e-9)
		proba[nbs[i].y] += w
		total += w
	}
	for i := range proba {
		proba[i] /= total
	}
	return proba
}
