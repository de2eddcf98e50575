// Package obs is the pipeline's latency observability layer: lock-free
// log-linear latency histograms cheap enough to record inside the
// zero-allocation ingest and classification fast paths, sampled
// flow-lifecycle tracing with slow-flow exemplars, and runtime
// introspection snapshots (goroutines, GC, heap) for the operations API.
//
// The package sits below pipeline, telemetry and server and imports none of
// them, so every layer of the serving spine can record into it without
// cycles. Recording is wait-free (atomic adds on fixed arrays) and performs
// no allocation, pinned by TestRecordZeroAlloc.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Bucket layout: log-linear, HDR-histogram style. Values below 2^subBits
// nanoseconds get exact one-nanosecond buckets; above that, every power-of-
// two octave is split into 2^subBits linear sub-buckets, giving a worst-case
// relative error of 2^-subBits (~3%) across the whole range. The top bucket
// absorbs everything at or above 2^(maxExp+1) ns (~18 minutes), far beyond
// any latency a packet pipeline stage can legitimately exhibit.
const (
	subBits = 5 // 32 sub-buckets per octave: ~3% worst-case resolution
	maxExp  = 39
	// NumBuckets is the fixed bucket count shared by Histogram and Summary.
	NumBuckets = (maxExp-subBits+1)<<subBits + (1 << subBits)
)

// bucketIndex maps a non-negative nanosecond value to its bucket. Values
// beyond the top bucket's range clamp into it.
func bucketIndex(ns int64) int {
	if ns <= 0 {
		return 0
	}
	v := uint64(ns)
	if v < 1<<subBits {
		return int(v)
	}
	e := bits.Len64(v) - 1
	if e > maxExp {
		return NumBuckets - 1
	}
	return (e-subBits+1)<<subBits + int((v>>uint(e-subBits))&(1<<subBits-1))
}

// BucketUpperBound returns the largest nanosecond value bucket i holds —
// the value quantile estimation reports, so estimates always bound the true
// latency from above.
func BucketUpperBound(i int) int64 {
	if i < 1<<subBits {
		return int64(i)
	}
	e := i>>subBits + subBits - 1
	sub := int64(i & (1<<subBits - 1))
	width := int64(1) << uint(e-subBits)
	return int64(1)<<uint(e) + (sub+1)*width - 1
}

// Histogram is a fixed-size, lock-free latency histogram: every bucket is
// an atomic counter, so Record is wait-free and allocation-free from any
// number of goroutines, and Snapshot reads a consistent-enough view without
// stopping writers (bucket sums are monotonic; a snapshot racing a Record
// may miss the in-flight sample but never sees torn state).
//
// The zero value is ready to use. All exported methods are nil-receiver
// safe, so call sites holding a possibly-nil *Histogram (e.g. from
// PipelineObserver.Stage) need no pointer check.
type Histogram struct {
	counts [NumBuckets]atomic.Uint64
	sum    atomic.Int64
	max    atomic.Int64
}

// Record adds one latency sample. 0 allocs/op (TestRecordZeroAlloc), safe
// from any goroutine, no-op on a nil receiver.
func (h *Histogram) Record(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketIndex(ns)].Add(1)
	h.sum.Add(ns)
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Snapshot captures the histogram's current contents. The total count is
// derived from the bucket counts themselves, so quantiles computed from a
// snapshot are always internally consistent even while writers race. A nil
// receiver yields an empty snapshot.
func (h *Histogram) Snapshot() *Snapshot {
	if h == nil {
		return &Snapshot{}
	}
	s := &Snapshot{counts: make([]uint64, NumBuckets)}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.counts[i] = c
		s.Count += c
	}
	s.Sum = h.sum.Load()
	s.Max = h.max.Load()
	return s
}

// Snapshot is a point-in-time copy of a Histogram, safe to read at leisure.
type Snapshot struct {
	// Count is the number of recorded samples (the sum of all buckets).
	Count uint64
	// Sum is the total recorded nanoseconds (may transiently lag Count
	// while writers race; use Mean for the derived value).
	Sum int64
	// Max is the largest recorded sample in nanoseconds (exact, not
	// bucket-quantized).
	Max int64

	counts []uint64
}

// Quantile returns the q-quantile (0 < q <= 1) as a duration, estimated at
// the containing bucket's upper bound so it never under-reports. Zero
// samples yield zero.
func (s *Snapshot) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range s.counts {
		cum += c
		if cum >= rank {
			ub := BucketUpperBound(i)
			if ub > s.Max && s.Max > 0 {
				ub = s.Max // never report past the observed maximum
			}
			return time.Duration(ub)
		}
	}
	return time.Duration(s.Max)
}

// Mean returns the mean recorded latency.
func (s *Snapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.Sum / int64(s.Count))
}
