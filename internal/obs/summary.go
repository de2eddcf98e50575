package obs

import (
	"math"
	"time"
)

// Summary is a mergeable, JSON-serializable latency digest for embedding in
// telemetry windows, and what Histogram.Snapshot returns: the same
// log-linear bucket layout as Histogram, stored sparsely so idle windows
// cost nothing on the wire. Unlike Histogram it is
// not safe for concurrent use — it lives inside structures that already
// serialize access (a rollup window behind its mutex).
type Summary struct {
	// Count is the number of observed samples.
	Count uint64 `json:"count"`
	// SumNS/MaxNS are total and maximum observed nanoseconds.
	SumNS int64 `json:"sum_ns"`
	MaxNS int64 `json:"max_ns"`
	// Buckets maps log-linear bucket index (see BucketUpperBound) to sample
	// count, holding only non-empty buckets.
	Buckets map[int]uint64 `json:"buckets,omitempty"`
}

// Observe folds one latency sample into the summary. On the window-fold
// path: allocation-free once Buckets exists, pinned through the whole fold
// by TestQualityFoldZeroAlloc in internal/telemetry.
func (s *Summary) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	if s.Buckets == nil {
		s.Buckets = make(map[int]uint64) // lazy one-time init per window
	}
	s.Buckets[bucketIndex(ns)]++
	s.Count++
	s.SumNS += ns
	if ns > s.MaxNS {
		s.MaxNS = ns
	}
}

// Merge folds other into s. Bucket counts add, so quantiles of the merged
// summary equal quantiles of the union of samples (to bucket resolution).
func (s *Summary) Merge(other *Summary) {
	if other == nil || other.Count == 0 {
		return
	}
	if s.Buckets == nil {
		s.Buckets = make(map[int]uint64, len(other.Buckets))
	}
	for i, c := range other.Buckets {
		s.Buckets[i] += c
	}
	s.Count += other.Count
	s.SumNS += other.SumNS
	if other.MaxNS > s.MaxNS {
		s.MaxNS = other.MaxNS
	}
}

// Quantile returns the q-quantile (0 < q <= 1) as a duration, reported at
// the containing bucket's upper bound, clamped to the observed maximum, so
// it never under-reports. It walks the non-empty buckets in index order.
// Zero samples (or a nil summary) yield zero.
func (s *Summary) Quantile(q float64) time.Duration {
	if s == nil || s.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	// One pass over the map spreads the counts into bucket order, and the
	// walk is a scan of that array, not a map probe per bucket. An index
	// outside the layout, which only a corrupt archive could hold, is
	// skipped.
	var counts [NumBuckets]uint64
	for i, c := range s.Buckets {
		if i >= 0 && i < NumBuckets {
			counts[i] = c
		}
	}
	var cum uint64
	for i, c := range counts {
		if cum += c; cum >= rank {
			ub := BucketUpperBound(i)
			if ub > s.MaxNS && s.MaxNS > 0 {
				ub = s.MaxNS
			}
			return time.Duration(ub)
		}
	}
	return time.Duration(s.MaxNS)
}

// Mean returns the mean observed latency (zero for an empty or nil summary).
func (s *Summary) Mean() time.Duration {
	if s == nil || s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNS / int64(s.Count))
}
