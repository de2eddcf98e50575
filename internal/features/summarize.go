package features

import (
	"fmt"
	"sort"
	"strings"
)

// FieldSummary aggregates one handshake field across a labeled dataset, the
// statistic behind Fig 3 (value diversity), Fig 12 (median heatmaps) and
// Fig 13: how many distinct whole-field values exist, how many platforms
// exhibit a value distribution no other platform shares, and the normalized
// median value per platform.
type FieldSummary struct {
	Attr Attribute
	// UniqueValues counts distinct whole-field values across all samples
	// (a list field's value is the entire ordered list).
	UniqueValues int
	// UniquePlatforms counts platforms whose value distribution for this
	// field differs from every other platform's.
	UniquePlatforms int
	// MedianByPlatform maps platform label to the median field value,
	// normalized to [0,1] over the field's observed value ids.
	MedianByPlatform map[string]float64
	// UniqueByPlatform maps platform label to its distinct value count.
	UniqueByPlatform map[string]int
}

// Render renders one attribute's whole-field value as text: a categorical
// token, a list's tokens joined by "|", a number as %g. An absent field, or
// an empty list, renders as "".
func (s *FieldValues) Render(a Attribute) string {
	switch a.Kind {
	case Categorical:
		return s.Cats[a.Label]
	case List:
		return strings.Join(s.Lists[a.Label], "|")
	default:
		if v, ok := s.Nums[a.Label]; ok {
			return fmt.Sprintf("%g", v)
		}
		return ""
	}
}

// Summarize computes per-field summaries over a labeled sample set.
// samples[i] has platform labels[i].
func Summarize(samples []*FieldValues, labels []string, attrs []Attribute) []FieldSummary {
	if len(samples) != len(labels) {
		panic("features: samples/labels length mismatch")
	}
	out := make([]FieldSummary, 0, len(attrs))
	for _, a := range attrs {
		sum := FieldSummary{Attr: a,
			MedianByPlatform: map[string]float64{},
			UniqueByPlatform: map[string]int{}}

		// Whole-value vocabulary (sorted for stable ids).
		valueSet := map[string]bool{}
		perPlatform := map[string][]string{}
		for i, s := range samples {
			v := s.Render(a) // absent is itself a value, "" ("0" in the paper)
			valueSet[v] = true
			perPlatform[labels[i]] = append(perPlatform[labels[i]], v)
		}
		vocab := make([]string, 0, len(valueSet))
		for v := range valueSet {
			vocab = append(vocab, v)
		}
		sort.Strings(vocab)
		id := make(map[string]int, len(vocab))
		for i, v := range vocab {
			id[v] = i + 1
		}
		nonEmpty := len(valueSet)
		if valueSet[""] {
			nonEmpty--
		}
		if nonEmpty == 0 {
			nonEmpty = 1 // field absent everywhere: one "value"
		}
		sum.UniqueValues = nonEmpty

		// Distribution signature per platform: sorted value ids with
		// frequencies rounded to 10% buckets.
		sig := map[string]string{}
		for label, vals := range perPlatform {
			counts := map[string]int{}
			uniq := map[string]bool{}
			for _, v := range vals {
				counts[v]++
				if v != "" {
					uniq[v] = true
				}
			}
			keys := make([]string, 0, len(counts))
			for v := range counts {
				keys = append(keys, v)
			}
			sort.Strings(keys)
			var b strings.Builder
			for _, v := range keys {
				freq := float64(counts[v]) / float64(len(vals))
				fmt.Fprintf(&b, "%d@%.1f;", id[v], freq)
			}
			sig[label] = b.String()
			sum.UniqueByPlatform[label] = max(1, len(uniq))

			// Median of value ids, normalized by vocabulary size.
			ids := make([]int, 0, len(vals))
			for _, v := range vals {
				ids = append(ids, id[v])
			}
			sort.Ints(ids)
			med := float64(ids[len(ids)/2])
			sum.MedianByPlatform[label] = med / float64(len(vocab))
		}

		// Count platforms with globally unique signatures.
		sigCount := map[string]int{}
		for _, s := range sig {
			sigCount[s]++
		}
		for _, s := range sig {
			if sigCount[s] == 1 {
				sum.UniquePlatforms++
			}
		}
		out = append(out, sum)
	}
	return out
}
