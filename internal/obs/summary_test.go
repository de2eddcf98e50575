package obs

import (
	"encoding/json"
	"testing"
	"time"
)

// TestSummaryMergeEquivalence verifies that summarizing two halves and
// merging equals summarizing the whole — the property window downsampling
// (1m buckets folded into 10m) depends on.
func TestSummaryMergeEquivalence(t *testing.T) {
	var whole, a, b Summary
	for i := 1; i <= 2000; i++ {
		d := time.Duration(i) * time.Microsecond
		whole.Observe(d)
		if i%2 == 0 {
			a.Observe(d)
		} else {
			b.Observe(d)
		}
	}
	var merged Summary
	merged.Merge(&a)
	merged.Merge(&b)
	if merged.Count != whole.Count || merged.SumNS != whole.SumNS || merged.MaxNS != whole.MaxNS {
		t.Fatalf("merged scalars %+v != whole %+v", merged, whole)
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 1.0} {
		if mq, wq := merged.Quantile(q), whole.Quantile(q); mq != wq {
			t.Fatalf("Quantile(%v): merged %v != whole %v", q, mq, wq)
		}
	}
}

// TestSummaryJSONRoundTrip confirms a summary survives the JSONL persistence
// path bit-exact: quantiles before and after marshalling agree.
func TestSummaryJSONRoundTrip(t *testing.T) {
	var s Summary
	for i := 1; i <= 500; i++ {
		s.Observe(time.Duration(i*i) * time.Microsecond)
	}
	raw, err := json.Marshal(&s)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var back Summary
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if back.Count != s.Count || back.SumNS != s.SumNS || back.MaxNS != s.MaxNS {
		t.Fatalf("round trip scalars changed: %+v != %+v", back, s)
	}
	for _, q := range []float64{0.5, 0.99} {
		if back.Quantile(q) != s.Quantile(q) {
			t.Fatalf("Quantile(%v) changed across round trip", q)
		}
	}
}

func TestSummaryCloneIndependence(t *testing.T) {
	var s Summary
	s.Observe(time.Millisecond)
	// Merge into an empty summary is how a window's digest is copied
	// (telemetry.Window.Clone): the copy must share no buckets with s.
	var c Summary
	c.Merge(&s)
	c.Observe(2 * time.Millisecond)
	if s.Count != 1 || c.Count != 2 || bucketCounts(&s)[bucketIndex(int64(2*time.Millisecond))] != 0 {
		t.Fatalf("copy not independent: orig %d, copy %d", s.Count, c.Count)
	}
	var nilSum *Summary
	if nilSum.Quantile(0.99) != 0 || nilSum.Mean() != 0 {
		t.Fatal("nil summary quantile/mean should be zero")
	}
}

func TestSummaryQuantileClampsToMax(t *testing.T) {
	var s Summary
	s.Observe(100 * time.Microsecond)
	// A single sample's p99 is that sample, not its bucket's upper bound.
	if got := s.Quantile(0.99); got != 100*time.Microsecond {
		t.Fatalf("Quantile(0.99) = %v, want 100us exactly (clamped to max)", got)
	}
}
