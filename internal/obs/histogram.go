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
func (h *Histogram) Record(d time.Duration) { h.RecordN(d, 1) }

// RecordN adds n samples of d for the price of one: one bucket add of n, one
// sum add of n·d and one max update, so a batch's n frames can share one
// sample of their mean cost. It snapshots exactly as n calls of Record(d)
// would (TestRecordNMatchesRecord). 0 allocs/op; n < 1 or a nil receiver is
// a no-op.
func (h *Histogram) RecordN(d time.Duration, n int) {
	if h == nil || n < 1 {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketIndex(ns)].Add(uint64(n))
	h.sum.Add(ns * int64(n))
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Snapshot captures the histogram's current contents as a Summary. The
// total count is derived from the bucket counts themselves, so quantiles
// computed from a snapshot are always internally consistent even while
// writers race; SumNS may transiently lag it. A nil receiver yields an empty
// summary.
func (h *Histogram) Snapshot() *Summary {
	if h == nil {
		return &Summary{}
	}
	var counts [NumBuckets]uint64
	n := 0
	for i := range h.counts {
		if counts[i] = h.counts[i].Load(); counts[i] > 0 {
			n++
		}
	}
	s := &Summary{buckets: make([]uint64, 0, n)}
	for i, c := range counts {
		if c > 0 {
			s.buckets = append(s.buckets, bucketWord(i, c))
			s.Count += c
		}
	}
	s.SumNS = h.sum.Load()
	s.MaxNS = h.max.Load()
	return s
}
