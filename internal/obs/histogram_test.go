package obs

import (
	"math/rand/v2"
	"reflect"
	"sync"
	"testing"
	"time"
)

// TestBucketBoundaries checks the log-linear mapping is monotone, exact
// below 2^subBits, continuous across octave boundaries, and that every
// bucket's upper bound maps back to the same bucket.
func TestBucketBoundaries(t *testing.T) {
	// Exact region: one bucket per nanosecond.
	for v := int64(0); v < 1<<subBits; v++ {
		if got := bucketIndex(v); got != int(v) {
			t.Fatalf("bucketIndex(%d) = %d, want %d", v, got, v)
		}
	}
	// Monotone non-decreasing over a dense sweep plus octave edges.
	prev := -1
	for v := int64(0); v < 1<<12; v++ {
		idx := bucketIndex(v)
		if idx < prev {
			t.Fatalf("bucketIndex not monotone at %d: %d < %d", v, idx, prev)
		}
		prev = idx
	}
	for _, v := range []int64{31, 32, 33, 63, 64, 65, 127, 128, 1 << 20, 1<<20 + 1} {
		lo, hi := bucketIndex(v-1), bucketIndex(v)
		if hi-lo > 1 {
			t.Fatalf("bucket gap at %d: %d -> %d", v, lo, hi)
		}
	}
	// Round trip: upper bound of each bucket lands in that bucket, and the
	// next nanosecond lands in the next.
	for i := 0; i < NumBuckets-1; i++ {
		ub := BucketUpperBound(i)
		if got := bucketIndex(ub); got != i {
			t.Fatalf("bucketIndex(BucketUpperBound(%d)=%d) = %d", i, ub, got)
		}
		if got := bucketIndex(ub + 1); got != i+1 {
			t.Fatalf("bucketIndex(%d+1) = %d, want %d", ub, got, i+1)
		}
	}
	// Clamping: negative to bucket 0, beyond-range to the top bucket.
	if got := bucketIndex(-5); got != 0 {
		t.Fatalf("bucketIndex(-5) = %d, want 0", got)
	}
	if got := bucketIndex(1 << 62); got != NumBuckets-1 {
		t.Fatalf("bucketIndex(1<<62) = %d, want %d", got, NumBuckets-1)
	}
}

// TestBucketResolution verifies the ~3% relative-error contract: each
// bucket's width is at most 2^-subBits of its lower bound.
func TestBucketResolution(t *testing.T) {
	for i := 1 << subBits; i < NumBuckets; i++ {
		lo := BucketUpperBound(i-1) + 1
		hi := BucketUpperBound(i)
		if width := hi - lo + 1; float64(width) > float64(lo)/float64(1<<subBits)+1 {
			t.Fatalf("bucket %d [%d,%d] wider than resolution contract", i, lo, hi)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 1..1000 microseconds, one sample each.
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("Count = %d, want 1000", s.Count)
	}
	if s.MaxNS != int64(1000*time.Microsecond) {
		t.Fatalf("Max = %d, want %d", s.MaxNS, int64(1000*time.Microsecond))
	}
	check := func(q, want float64) {
		got := s.Quantile(q).Seconds() * 1e6 // microseconds
		if got < want*0.97 || got > want*1.07 {
			t.Fatalf("Quantile(%v) = %.1fus, want ~%.0fus", q, got, want)
		}
	}
	check(0.50, 500)
	check(0.90, 900)
	check(0.99, 990)
	if mean := s.Mean().Seconds() * 1e6; mean < 480 || mean > 520 {
		t.Fatalf("Mean = %.1fus, want ~500us", mean)
	}
}

func TestHistogramEmpty(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Count != 0 || s.Quantile(0.99) != 0 || s.Mean() != 0 || s.MaxNS != 0 {
		t.Fatalf("empty histogram snapshot not zero: %+v", s)
	}
}

// TestHistogramConcurrent hammers Record from many goroutines (meaningful
// under -race) and checks no samples are lost.
func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	const workers, per = 8, 5000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Record(time.Duration(w*per+i) * time.Nanosecond)
			}
		}(w)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != workers*per {
		t.Fatalf("Count = %d, want %d", s.Count, workers*per)
	}
	if s.MaxNS != int64(workers*per-1) {
		t.Fatalf("Max = %d, want %d", s.MaxNS, workers*per-1)
	}
}

// TestSnapshotRecordInterleaving snapshots continuously while a writer
// records; every snapshot must be internally consistent (count equals the
// bucket sum by construction, quantiles never exceed max-so-far bucket) and
// counts must be monotone across snapshots.
func TestSnapshotRecordInterleaving(t *testing.T) {
	var h Histogram
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20000; i++ {
			h.Record(time.Duration(i%1000) * time.Microsecond)
		}
	}()
	var prev uint64
	for i := 0; i < 200; i++ {
		s := h.Snapshot()
		if s.Count < prev {
			t.Fatalf("snapshot count regressed: %d -> %d", prev, s.Count)
		}
		prev = s.Count
		if s.Count > 0 {
			if q := s.Quantile(1.0); int64(q) > BucketUpperBound(NumBuckets-1) {
				t.Fatalf("quantile out of range: %v", q)
			}
		}
	}
	<-done
	if s := h.Snapshot(); s.Count != 20000 {
		t.Fatalf("final count = %d, want 20000", s.Count)
	}
}

// TestRecordZeroAlloc pins the tentpole contract: recording into a
// histogram, and into every stage of a PipelineObserver, allocates nothing.
func TestRecordZeroAlloc(t *testing.T) {
	var h Histogram
	if n := testing.AllocsPerRun(1000, func() { h.Record(123 * time.Microsecond) }); n != 0 {
		t.Fatalf("Histogram.Record allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() { h.RecordN(2*time.Microsecond, 64) }); n != 0 {
		t.Fatalf("Histogram.RecordN allocates %.1f/op, want 0", n)
	}
	o := NewPipelineObserver()
	if n := testing.AllocsPerRun(1000, func() {
		for s := 0; s < NumStages; s++ {
			o.Record(Stage(s), 42*time.Microsecond)
		}
	}); n != 0 {
		t.Fatalf("PipelineObserver.Record allocates %.1f/op, want 0", n)
	}
	if n := testing.AllocsPerRun(1000, func() {
		for s := 0; s < NumStages; s++ {
			o.RecordN(Stage(s), 42*time.Microsecond, 7)
		}
	}); n != 0 {
		t.Fatalf("PipelineObserver.RecordN allocates %.1f/op, want 0", n)
	}
}

// TestRecordNMatchesRecord is RecordN's model: RecordN(d, n) snapshots the
// same as n calls of Record(d) — bucket counts, SumNS and MaxNS — over
// durations of every magnitude, negative and zero ones too, and n of 0, 1
// and a batch's worth.
func TestRecordNMatchesRecord(t *testing.T) {
	rng := rand.New(rand.NewPCG(46, 1))
	var batched, single Histogram
	for step := 0; step < 2000; step++ {
		d := time.Duration(rng.Int64() >> rng.IntN(64))
		switch step % 7 {
		case 0:
			d = -d
		case 1:
			d = 0
		}
		n := rng.IntN(70)
		batched.RecordN(d, n)
		for i := 0; i < n; i++ {
			single.Record(d)
		}
		got, want := batched.Snapshot(), single.Snapshot()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("step %d, RecordN(%v, %d): count/sum/max %d/%d/%d, %d Records %d/%d/%d",
				step, d, n, got.Count, got.SumNS, got.MaxNS, n, want.Count, want.SumNS, want.MaxNS)
		}
	}
	o := NewPipelineObserver()
	o.RecordN(StageDecode, 3*time.Microsecond, 64)
	o.RecordN(StageDecode, time.Microsecond, 0)
	if s := o.Stage(StageDecode).Snapshot(); s.Count != 64 || s.SumNS != 64*3000 || s.MaxNS != 3000 {
		t.Fatalf("observer decode count/sum/max = %d/%d/%d, want 64/192000/3000", s.Count, s.SumNS, s.MaxNS)
	}
}

// TestNanotime checks the stage clock: it never runs backwards, and two
// readings span at least the time slept between them.
func TestNanotime(t *testing.T) {
	t0 := Nanotime()
	time.Sleep(2 * time.Millisecond)
	t1 := Nanotime()
	if t0 <= 0 || t1-t0 < int64(2*time.Millisecond) {
		t.Fatalf("Nanotime read %d then %d across a 2ms sleep", t0, t1)
	}
}

func TestStageStats(t *testing.T) {
	o := NewPipelineObserver()
	o.Record(StageClassify, 2*time.Millisecond)
	o.Record(StageClassify, 4*time.Millisecond)
	stats := o.StageStats()
	if len(stats) != NumStages {
		t.Fatalf("len(StageStats) = %d, want %d", len(stats), NumStages)
	}
	var cl StageStats
	for _, st := range stats {
		if st.Stage == "classify" {
			cl = st
		}
	}
	if cl.Count != 2 {
		t.Fatalf("classify count = %d, want 2", cl.Count)
	}
	if cl.MaxMs < 3.9 || cl.MaxMs > 4.1 {
		t.Fatalf("classify max = %.2fms, want ~4ms", cl.MaxMs)
	}
	if cl.P99Ms < cl.P50Ms {
		t.Fatalf("p99 (%.3f) < p50 (%.3f)", cl.P99Ms, cl.P50Ms)
	}
	// Nil observer: no-ops and nil stats.
	var nilObs *PipelineObserver
	nilObs.Record(StageDecode, time.Millisecond)
	if nilObs.StageStats() != nil {
		t.Fatal("nil observer StageStats should be nil")
	}
}

// BenchmarkRecordLatencyParallel exercises contended recording across
// goroutines, the shape shard workers produce.
func BenchmarkRecordLatencyParallel(b *testing.B) {
	o := NewPipelineObserver()
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			o.Record(Stage(i%NumStages), time.Duration(i&0xFFFF)*time.Nanosecond)
			i++
		}
	})
}
