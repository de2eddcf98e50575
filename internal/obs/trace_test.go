package obs

import (
	"sync"
	"testing"
	"time"
)

// TestTracerSamplingDeterminism checks the 1-in-N contract: exactly the 1st,
// (N+1)th, (2N+1)th... offered flows are admitted.
func TestTracerSamplingDeterminism(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleEvery: 4})
	var admitted []int
	for i := 0; i < 20; i++ {
		if sp := tr.Admit(); sp != nil {
			admitted = append(admitted, i)
			tr.Finish(sp)
		}
	}
	want := []int{0, 4, 8, 12, 16}
	if len(admitted) != len(want) {
		t.Fatalf("admitted %v, want %v", admitted, want)
	}
	for i := range want {
		if admitted[i] != want[i] {
			t.Fatalf("admitted %v, want %v", admitted, want)
		}
	}
	snap := tr.Snapshot(0)
	if snap.Offered != 20 || snap.Admitted != 5 || snap.Finished != 5 {
		t.Fatalf("counters offered=%d admitted=%d finished=%d, want 20/5/5",
			snap.Offered, snap.Admitted, snap.Finished)
	}
}

func TestTracerSampleEveryOne(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleEvery: 1})
	for i := 0; i < 5; i++ {
		sp := tr.Admit()
		if sp == nil {
			t.Fatalf("SampleEvery=1 must admit every flow (flow %d)", i)
		}
		tr.Finish(sp)
	}
}

func TestTracerDisabled(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleEvery: -1})
	if sp := tr.Admit(); sp != nil {
		t.Fatal("disabled tracer admitted a span")
	}
	var nilTr *Tracer
	if sp := nilTr.Admit(); sp != nil {
		t.Fatal("nil tracer admitted a span")
	}
	nilTr.Finish(nil) // must not panic
	if snap := nilTr.Snapshot(10); snap.Admitted != 0 {
		t.Fatal("nil tracer snapshot not zero")
	}
}

// TestTracerSlowestRetention finishes spans with controlled durations
// (Admitted back-dated, so TotalNS is deterministic without sleeping) and
// checks the slowest-K set keeps exactly the K largest, sorted descending,
// while the ring keeps the most recent regardless of duration.
func TestTracerSlowestRetention(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleEvery: 1})
	tr.ringCap, tr.slowCap = 4, 3 // small enough for seven spans to overflow both
	// Durations in ms: 5, 1, 9, 3, 7, 2, 8 → slowest 3 = 9, 8, 7.
	for _, ms := range []int64{5, 1, 9, 3, 7, 2, 8} {
		sp := tr.Admit()
		sp.Admitted = time.Now().Add(-time.Duration(ms) * time.Millisecond)
		tr.Finish(sp)
	}
	snap := tr.Snapshot(0)
	if len(snap.Slowest) != 3 {
		t.Fatalf("len(Slowest) = %d, want 3", len(snap.Slowest))
	}
	approxMs := func(ns int64) int64 { return (ns + int64(time.Millisecond)/2) / int64(time.Millisecond) }
	got := []int64{approxMs(snap.Slowest[0].TotalNS), approxMs(snap.Slowest[1].TotalNS), approxMs(snap.Slowest[2].TotalNS)}
	if got[0] != 9 || got[1] != 8 || got[2] != 7 {
		t.Fatalf("slowest = %v ms, want [9 8 7]", got)
	}
	// Ring keeps the last 4 finished, newest first: 8, 2, 7, 3.
	if len(snap.Recent) != 4 {
		t.Fatalf("len(Recent) = %d, want 4", len(snap.Recent))
	}
	recent := []int64{approxMs(snap.Recent[0].TotalNS), approxMs(snap.Recent[1].TotalNS),
		approxMs(snap.Recent[2].TotalNS), approxMs(snap.Recent[3].TotalNS)}
	if recent[0] != 8 || recent[1] != 2 || recent[2] != 7 || recent[3] != 3 {
		t.Fatalf("recent = %v ms, want [8 2 7 3]", recent)
	}
}

// TestTracerSpanReuse ensures pooled spans come back clean: a recycled span
// must not leak the previous flow's fields.
func TestTracerSpanReuse(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleEvery: 1})
	sp := tr.Admit()
	sp.SNI = "video.example.com"
	sp.Frames = 7
	sp.Verdict = "roku"
	sp.Status = "partial"
	tr.Finish(sp)
	sp2 := tr.Admit()
	if sp2.SNI != "" || sp2.Frames != 0 || sp2.Verdict != "" || sp2.Status != "" {
		t.Fatalf("recycled span not reset: %+v", sp2)
	}
	if sp2.ID != 2 {
		t.Fatalf("span ID = %d, want 2", sp2.ID)
	}
	tr.Finish(sp2)
}

// TestTracerConcurrent exercises Admit/Finish/Snapshot from many goroutines
// under -race.
func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(TracerConfig{SampleEvery: 2})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				if sp := tr.Admit(); sp != nil {
					sp.Frames = i
					tr.Finish(sp)
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			tr.Snapshot(16)
		}
	}()
	wg.Wait()
	<-done
	snap := tr.Snapshot(0)
	if snap.Offered != 16000 {
		t.Fatalf("offered = %d, want 16000", snap.Offered)
	}
	if snap.Admitted != 8000 || snap.Finished != 8000 {
		t.Fatalf("admitted/finished = %d/%d, want 8000/8000", snap.Admitted, snap.Finished)
	}
	if len(snap.Recent) != traceRing || len(snap.Slowest) != traceSlowest {
		t.Fatalf("recent/slowest lens = %d/%d, want %d/%d",
			len(snap.Recent), len(snap.Slowest), traceRing, traceSlowest)
	}
}

func TestRuntimeAndBuildInfo(t *testing.T) {
	rs := ReadRuntimeStats()
	if rs.Goroutines < 1 || rs.GOMAXPROCS < 1 || rs.HeapAllocBytes == 0 {
		t.Fatalf("implausible runtime stats: %+v", rs)
	}
	bi := ReadBuildInfo()
	if bi.GoVersion == "" {
		t.Fatal("build info missing Go version")
	}
}
