package ml

import (
	"math"
	"sort"
)

// InformationGain computes the normalized mutual information between each
// feature column and the class labels, the attribute-importance metric of
// §4.2.2: I(X;Y) = H(X) + H(Y) − H(X,Y), normalized by H(Y) so a perfectly
// predictive attribute scores 1 and an irrelevant one scores 0.
//
// Columns with many distinct values are discretized into at most maxBins
// equal-frequency bins first (values here are mostly small discrete codes,
// so binning rarely triggers).
func InformationGain(d *Dataset, maxBins int) []float64 {
	if maxBins <= 0 {
		maxBins = 64
	}
	n := d.Len()
	hy := labelEntropy(d.Y, len(d.Classes))
	out := make([]float64, d.NumFeatures())
	if n == 0 || hy == 0 {
		return out
	}
	col := make([]float64, n)
	for j := range out {
		for i := range d.X {
			col[i] = d.X[i][j]
		}
		binned := discretize(col, maxBins)
		out[j] = mutualInformation(binned, d.Y, len(d.Classes)) / hy
		if out[j] < 0 {
			out[j] = 0
		}
		if out[j] > 1 {
			out[j] = 1
		}
	}
	return out
}

// AttributeImportance aggregates per-column gains back to attributes using
// the maximum over the attribute's expanded columns (a list attribute is as
// informative as its best position).
func AttributeImportance(gains []float64, attrColumns map[string][]int) map[string]float64 {
	out := make(map[string]float64, len(attrColumns))
	for label, cols := range attrColumns {
		best := 0.0
		for _, c := range cols {
			if c < len(gains) && gains[c] > best {
				best = gains[c]
			}
		}
		out[label] = best
	}
	return out
}

func labelEntropy(y []int, classes int) float64 {
	counts := make([]int, classes)
	for _, v := range y {
		counts[v]++
	}
	var h float64
	n := float64(len(y))
	for _, c := range counts {
		if c == 0 {
			continue
		}
		p := float64(c) / n
		h -= p * math.Log2(p)
	}
	return h
}

// discretize maps column values to integer bin ids. If the column has at
// most maxBins distinct values each value is its own bin; otherwise
// equal-frequency quantile bins are used.
func discretize(col []float64, maxBins int) []int {
	uniq := map[float64]int{}
	for _, v := range col {
		if _, ok := uniq[v]; !ok {
			uniq[v] = len(uniq)
			if len(uniq) > maxBins {
				break
			}
		}
	}
	out := make([]int, len(col))
	if len(uniq) <= maxBins {
		for i, v := range col {
			out[i] = uniq[v]
		}
		return out
	}
	sorted := append([]float64{}, col...)
	sort.Float64s(sorted)
	cuts := make([]float64, maxBins-1)
	for b := 1; b < maxBins; b++ {
		cuts[b-1] = sorted[len(sorted)*b/maxBins]
	}
	for i, v := range col {
		out[i] = sort.SearchFloat64s(cuts, v)
	}
	return out
}

// mutualInformation sums over the (bin, class) cells in key order, so equal
// inputs give bit-identical gains: a float sum in map order differs in its
// last bits from run to run, enough to reorder attributes of equal gain in
// rankAttributes. x holds discretize's bin ids, all below maxBins, so the
// joint counts fit a dense table.
func mutualInformation(x []int, y []int, classes int) float64 {
	n := float64(len(x))
	bins := 0
	for _, b := range x {
		bins = max(bins, b+1)
	}
	joint := make([]int, bins*classes)
	xCounts := make([]int, bins)
	yCounts := make([]int, classes)
	for i := range x {
		joint[x[i]*classes+y[i]]++
		xCounts[x[i]]++
		yCounts[y[i]]++
	}
	var mi float64
	for k, c := range joint {
		if c == 0 {
			continue
		}
		pxy := float64(c) / n
		px := float64(xCounts[k/classes]) / n
		py := float64(yCounts[k%classes]) / n
		mi += pxy * math.Log2(pxy/(px*py))
	}
	return mi
}
