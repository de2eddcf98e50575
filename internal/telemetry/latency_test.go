package telemetry

import (
	"bytes"
	"testing"
	"time"

	"videoplat/internal/fingerprint"
	"videoplat/internal/pipeline"
)

// latRec is rollRec plus a classification latency stamp.
func latRec(start time.Time, classifyNanos int64) *pipeline.FlowRecord {
	r := rollRec(fingerprint.YouTube, "windows_chrome", start, 10*time.Second, 10<<20)
	r.ClassifyNanos = classifyNanos
	return r
}

// TestWindowLatencyFold checks the rollup folds ClassifyNanos into the
// window's latency summary and that seal and Current both carry it.
func TestWindowLatencyFold(t *testing.T) {
	cap := &captureSink{}
	r := NewRollup(time.Minute, cap)
	r.Add(latRec(w0, int64(2*time.Millisecond)))
	r.Add(latRec(w0.Add(time.Second), int64(4*time.Millisecond)))
	r.Add(rollRec(fingerprint.Netflix, "", w0.Add(2*time.Second), time.Second, 1<<20)) // no latency stamp

	cur := r.Current()
	if cur.Latency == nil || cur.Latency.Count != 2 {
		t.Fatalf("Current latency = %+v, want 2 samples", cur.Latency)
	}
	// Current must deep-copy: observing into the snapshot's summary must
	// not affect the live window.
	cur.Latency.Observe(time.Second)
	if got := r.Current().Latency.Count; got != 2 {
		t.Fatalf("live window latency count = %d after mutating snapshot, want 2", got)
	}

	r.Flush()
	if len(cap.wins) != 1 {
		t.Fatalf("sealed %d windows, want 1", len(cap.wins))
	}
	w := cap.wins[0]
	if w.Latency == nil || w.Latency.Count != 2 {
		t.Fatalf("sealed latency = %+v, want 2 samples", w.Latency)
	}
	if got := w.Latency.MaxNS; got != int64(4*time.Millisecond) {
		t.Errorf("sealed latency max = %d, want 4ms", got)
	}
}

// TestQueryLatencySeries is the acceptance-criteria path: a step-aligned
// p99 classification-latency series that survives 1m→10m downsampling and
// a persistence round trip.
func TestQueryLatencySeries(t *testing.T) {
	var persisted bytes.Buffer
	store := NewStore(StoreConfig{Tiers: []time.Duration{10 * time.Minute}})

	// 30 one-minute windows, two samples each, latency ramping by window so
	// buckets are distinguishable after merging.
	var recs []*pipeline.FlowRecord
	for i := 0; i < 30; i++ {
		base := w0.Add(time.Duration(i) * time.Minute)
		recs = append(recs,
			latRec(base, int64(time.Duration(i+1)*time.Millisecond)),
			latRec(base.Add(20*time.Second), int64(time.Duration(2*(i+1))*time.Millisecond)))
	}
	feed(t, MultiSink(store, NewJSONLSink(&persisted)), sealWindows(t, time.Minute, recs...)...)

	// Raw-resolution query: every 1m bucket has its own p99.
	res, err := store.Query(time.Time{}, time.Time{}, time.Minute, GroupTotal)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 1 || len(res.Series[0].Points) != 30 {
		t.Fatalf("raw query: %d series / %d points", len(res.Series), len(res.Series[0].Points))
	}
	for i, p := range res.Series[0].Points {
		if p.LatencyCount != 2 {
			t.Fatalf("point %d latency count = %d, want 2", i, p.LatencyCount)
		}
		wantMax := float64(2 * (i + 1))
		if p.LatencyMaxMs != wantMax {
			t.Errorf("point %d latency max = %vms, want %v", i, p.LatencyMaxMs, wantMax)
		}
		// p99 reports a bucket upper bound ≥ the true max, within the ~3%
		// log-linear resolution.
		if p.LatencyP99Ms < wantMax || p.LatencyP99Ms > wantMax*1.04 {
			t.Errorf("point %d p99 = %vms, want ~%vms", i, p.LatencyP99Ms, wantMax)
		}
		if p.LatencyP50Ms <= 0 || p.LatencyP50Ms > p.LatencyP99Ms {
			t.Errorf("point %d p50 = %vms out of order with p99 %vms", i, p.LatencyP50Ms, p.LatencyP99Ms)
		}
	}

	// 10-minute step: source windows merge; each bucket's digest must equal
	// the union of its windows' samples (count 20, max from the last window
	// in the bucket).
	res10, err := store.Query(time.Time{}, time.Time{}, 10*time.Minute, GroupTotal)
	if err != nil {
		t.Fatal(err)
	}
	pts := res10.Series[0].Points
	if len(pts) != 3 {
		t.Fatalf("10m query: %d points, want 3", len(pts))
	}
	for i, p := range pts {
		if p.LatencyCount != 20 {
			t.Errorf("10m point %d count = %d, want 20", i, p.LatencyCount)
		}
		wantMax := float64(2 * 10 * (i + 1)) // last window in the bucket
		if p.LatencyMaxMs != wantMax {
			t.Errorf("10m point %d max = %vms, want %v", i, p.LatencyMaxMs, wantMax)
		}
	}

	// Restart: reload the persisted JSONL into a fresh store and re-run the
	// 10m query — the latency series must survive byte-exact.
	fresh := NewStore(StoreConfig{Tiers: []time.Duration{10 * time.Minute}})
	if n, err := fresh.Reload(bytes.NewReader(persisted.Bytes())); err != nil || n != 30 {
		t.Fatalf("Reload = %d, %v; want 30, nil", n, err)
	}
	resBack, err := fresh.Query(time.Time{}, time.Time{}, 10*time.Minute, GroupTotal)
	if err != nil {
		t.Fatal(err)
	}
	back := resBack.Series[0].Points
	if len(back) != len(pts) {
		t.Fatalf("reloaded points = %d, want %d", len(back), len(pts))
	}
	for i := range pts {
		if back[i].LatencyP99Ms != pts[i].LatencyP99Ms || back[i].LatencyCount != pts[i].LatencyCount ||
			back[i].LatencyMaxMs != pts[i].LatencyMaxMs {
			t.Errorf("point %d changed across restart: %+v vs %+v", i, back[i], pts[i])
		}
	}

	// Evict the raw ring so the downsampled 10m tier serves the query; the
	// tier's merged summaries must agree with raw re-aggregation.
	small := NewStore(StoreConfig{MaxWindows: 5, Tiers: []time.Duration{10 * time.Minute}})
	feed(t, small, sealWindows(t, time.Minute, recs...)...)
	resTier, err := small.Query(w0, time.Time{}, 10*time.Minute, GroupTotal)
	if err != nil {
		t.Fatal(err)
	}
	if resTier.TierSeconds != 600 {
		t.Fatalf("query served from %vs tier, want 600 (raw evicted)", resTier.TierSeconds)
	}
	tierPts := resTier.Series[0].Points
	if len(tierPts) != 3 {
		t.Fatalf("tier query: %d points, want 3", len(tierPts))
	}
	for i := range tierPts {
		if tierPts[i].LatencyP99Ms != pts[i].LatencyP99Ms || tierPts[i].LatencyCount != pts[i].LatencyCount {
			t.Errorf("downsampled point %d diverges: %+v vs raw %+v", i, tierPts[i], pts[i])
		}
	}
}

// TestQueryNoLatency pins that windows without latency stamps leave the
// query fields zero rather than fabricating digests.
func TestQueryNoLatency(t *testing.T) {
	store := NewStore(StoreConfig{})
	feed(t, store, sealWindows(t, time.Minute,
		rollRec(fingerprint.YouTube, "windows_chrome", w0, 10*time.Second, 1<<20))...)
	res, err := store.Query(time.Time{}, time.Time{}, time.Minute, GroupTotal)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Series[0].Points[0]
	if p.LatencyCount != 0 || p.LatencyP99Ms != 0 {
		t.Errorf("latency fields populated without stamps: %+v", p)
	}
}
