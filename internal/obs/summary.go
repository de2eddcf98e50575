package obs

import (
	"encoding/json"
	"math"
	"slices"
	"time"
)

// Summary is a mergeable, JSON-serializable latency digest for embedding in
// telemetry windows, and what Histogram.Snapshot returns: the same
// log-linear bucket layout as Histogram, stored sparsely so idle windows
// cost nothing. The non-empty buckets are one flat slice in ascending index
// order, a word each, so a digest is one allocation the size of its
// occupied buckets, and Merge is a merge-join of two sorted slices. Unlike
// Histogram it is not safe for concurrent use — it lives inside structures
// that already serialize access (a rollup window behind its mutex).
//
// The JSON form is count, sum_ns, max_ns and a sparse buckets object from
// bucket index (see BucketUpperBound) to sample count.
type Summary struct {
	// Count is the number of observed samples.
	Count uint64
	// SumNS/MaxNS are total and maximum observed nanoseconds.
	SumNS int64
	MaxNS int64
	// buckets holds the non-empty buckets in ascending index order, each a
	// word with the index in the top 16 bits and the count in the low 48.
	// Clone-by-Merge and decoding build it exact-size.
	buckets []uint64
}

// A bucket word's count field. Counts saturate at countMask (2^48-1, about
// 2.8e14 samples in one bucket) rather than carry into the index.
const (
	countBits = 48
	countMask = 1<<countBits - 1
)

// bucketWord packs bucket i holding c samples.
func bucketWord(i int, c uint64) uint64 { return uint64(i)<<countBits | min(c, countMask) }

// addCount returns bucket word b with n more samples, saturating.
func addCount(b, n uint64) uint64 {
	if c := b & countMask; n > countMask-c {
		return b | countMask
	}
	return b + n
}

// Observe folds one latency sample into the summary. On the window-fold
// path: a binary search and an add, allocating only when the sample opens a
// new bucket; pinned through the whole fold by TestQualityFoldZeroAlloc in
// internal/telemetry.
func (s *Summary) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	i := bucketIndex(ns)
	// Words order by index first, so the first word at or above the
	// index's zero-count word is the bucket, if it exists.
	j, _ := slices.BinarySearch(s.buckets, uint64(i)<<countBits)
	if j < len(s.buckets) && int(s.buckets[j]>>countBits) == i {
		s.buckets[j] = addCount(s.buckets[j], 1)
	} else {
		s.buckets = slices.Insert(s.buckets, j, bucketWord(i, 1))
	}
	s.Count++
	s.SumNS += ns
	if ns > s.MaxNS {
		s.MaxNS = ns
	}
}

// Reset empties s, keeping its bucket storage for the next observations.
func (s *Summary) Reset() { *s = Summary{buckets: s.buckets[:0]} }

// Merge folds other into s. Bucket counts add, so quantiles of the merged
// summary equal quantiles of the union of samples (to bucket resolution).
// Merging into an empty summary copies other and shares nothing with it.
func (s *Summary) Merge(other *Summary) {
	if other == nil || other.Count == 0 {
		return
	}
	s.buckets = mergeBuckets(s.buckets, other.buckets)
	s.Count += other.Count
	s.SumNS += other.SumNS
	if other.MaxNS > s.MaxNS {
		s.MaxNS = other.MaxNS
	}
}

// mergeBuckets adds src's bucket counts into dst. When src opens no bucket
// dst lacks, the counts add in place; otherwise the result is a new slice
// of exactly the merged length.
func mergeBuckets(dst, src []uint64) []uint64 {
	extra := 0
	for i, j := 0, 0; j < len(src); {
		switch {
		case i < len(dst) && dst[i]>>countBits < src[j]>>countBits:
			i++
		case i < len(dst) && dst[i]>>countBits == src[j]>>countBits:
			i, j = i+1, j+1
		default:
			extra, j = extra+1, j+1
		}
	}
	if extra == 0 {
		for i, j := 0, 0; j < len(src); i++ {
			if dst[i]>>countBits == src[j]>>countBits {
				dst[i] = addCount(dst[i], src[j]&countMask)
				j++
			}
		}
		return dst
	}
	out := make([]uint64, 0, len(dst)+extra)
	i, j := 0, 0
	for i < len(dst) && j < len(src) {
		switch a, b := dst[i]>>countBits, src[j]>>countBits; {
		case a < b:
			out = append(out, dst[i])
			i++
		case a > b:
			out = append(out, src[j])
			j++
		default:
			out = append(out, addCount(dst[i], src[j]&countMask))
			i, j = i+1, j+1
		}
	}
	out = append(out, dst[i:]...)
	return append(out, src[j:]...)
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
	var cum uint64
	for _, b := range s.buckets {
		if cum += b & countMask; cum >= rank {
			ub := BucketUpperBound(int(b >> countBits))
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

// summaryWire is Summary's JSON form. encoding/json writes a map's integer
// keys sorted as decimal strings, the order every archived window has.
type summaryWire struct {
	Count   uint64         `json:"count"`
	SumNS   int64          `json:"sum_ns"`
	MaxNS   int64          `json:"max_ns"`
	Buckets map[int]uint64 `json:"buckets,omitempty"`
}

// MarshalJSON writes the summary in its wire form. It runs once per sealed
// window and per /windows read, off the fold path.
func (s Summary) MarshalJSON() ([]byte, error) {
	w := summaryWire{Count: s.Count, SumNS: s.SumNS, MaxNS: s.MaxNS}
	if len(s.buckets) > 0 {
		w.Buckets = make(map[int]uint64, len(s.buckets))
		for _, b := range s.buckets {
			w.Buckets[int(b>>countBits)] = b & countMask
		}
	}
	return json.Marshal(w)
}

// UnmarshalJSON reads the wire form. Count and sums are kept as written; a
// bucket index outside the layout, which only a corrupt archive could
// hold, is dropped, as is an empty bucket.
func (s *Summary) UnmarshalJSON(data []byte) error {
	var w summaryWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*s = Summary{Count: w.Count, SumNS: w.SumNS, MaxNS: w.MaxNS}
	if len(w.Buckets) > 0 {
		s.buckets = make([]uint64, 0, len(w.Buckets))
	}
	for i, c := range w.Buckets {
		if i >= 0 && i < NumBuckets && c > 0 {
			s.buckets = append(s.buckets, bucketWord(i, c))
		}
	}
	slices.Sort(s.buckets)
	return nil
}
