package pipeline

import (
	"sync"
	"testing"
	"time"

	"videoplat/internal/fingerprint"
	"videoplat/internal/flowtable"
	"videoplat/internal/tracegen"
)

// emptyBank classifies nothing (every classification attempt errors), which
// is enough to exercise flow tracking, telemetry and eviction without the
// cost of training.
func emptyBank() *Bank { return &Bank{} }

func renderFlow(t *testing.T, g *tracegen.Generator, label string, prov fingerprint.Provider) *tracegen.FlowTrace {
	t.Helper()
	ft, err := g.Flow(label, prov, fingerprint.TCP, tracegen.FlowSpec{
		Duration: 10 * time.Second, TotalBytes: 1 << 20, PayloadFrames: 2})
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

func feedFlow(p *Pipeline, ft *tracegen.FlowTrace, start time.Time) {
	for _, fr := range ft.Frames {
		// The empty bank makes classification error; that is expected and
		// leaves the flow tracked with telemetry only.
		p.HandlePacket(start.Add(fr.Offset), fr.Data)
	}
}

func findBySNI(recs []*FlowRecord, sni string) *FlowRecord {
	for _, rec := range recs {
		if rec.SNI == sni {
			return rec
		}
	}
	return nil
}

// TestIdleEvictionDeliversFinalTelemetry checks that a flow idle past the
// timeout is evicted and that the record handed to OnEvict carries the same
// final telemetry Flows() reported while the flow was live.
func TestIdleEvictionDeliversFinalTelemetry(t *testing.T) {
	var evicted []*FlowRecord
	var reasons []flowtable.Reason
	p := NewWithConfig(emptyBank(), Config{
		IdleTimeout: time.Minute,
		OnEvict: func(rec *FlowRecord, reason flowtable.Reason) {
			evicted = append(evicted, rec)
			reasons = append(reasons, reason)
		},
	})
	g := tracegen.New(41)
	a := renderFlow(t, g, "windows_chrome", fingerprint.YouTube)
	b := renderFlow(t, g, "macOS_safari", fingerprint.Netflix)

	t0 := time.Date(2023, 7, 7, 12, 0, 0, 0, time.UTC)
	feedFlow(p, a, t0)
	want := findBySNI(p.Flows(), a.SNI)
	if want == nil {
		t.Fatalf("flow %s not tracked", a.SNI)
	}
	if want.BytesDown == 0 || want.PacketsUp == 0 {
		t.Fatalf("no telemetry accumulated: %+v", want)
	}

	// Two trace-minutes later flow A (last packet ~t0+10s) is idle.
	feedFlow(p, b, t0.Add(2*time.Minute))

	if len(evicted) != 1 || reasons[0] != flowtable.ReasonIdle {
		t.Fatalf("evictions = %d (%v), want 1 idle", len(evicted), reasons)
	}
	if *evicted[0] != *want {
		t.Errorf("evicted record diverges from live Flows() record:\n got %+v\nwant %+v", *evicted[0], *want)
	}
	if st := p.TableStats(); st.Active != 1 || st.EvictedIdle != 1 {
		t.Errorf("table stats = %+v", st)
	}
	if findBySNI(p.Flows(), a.SNI) != nil {
		t.Error("evicted flow still reported by Flows()")
	}
}

// TestCapEvictionUnionMatchesFlowsSemantics checks that MaxFlows is
// enforced and that OnEvict output plus Flows() covers every flow exactly
// once — the sink-side contract.
func TestCapEvictionUnionMatchesFlowsSemantics(t *testing.T) {
	var evicted []*FlowRecord
	p := NewWithConfig(emptyBank(), Config{
		MaxFlows: 2,
		OnEvict: func(rec *FlowRecord, reason flowtable.Reason) {
			if reason != flowtable.ReasonCap {
				t.Errorf("reason = %v, want cap", reason)
			}
			evicted = append(evicted, rec)
		},
	})
	g := tracegen.New(43)
	flows := []*tracegen.FlowTrace{
		renderFlow(t, g, "windows_chrome", fingerprint.YouTube),
		renderFlow(t, g, "iOS_nativeApp", fingerprint.Disney),
		renderFlow(t, g, "ps5_nativeApp", fingerprint.Amazon),
	}
	t0 := time.Date(2023, 7, 7, 12, 0, 0, 0, time.UTC)
	for i, ft := range flows {
		feedFlow(p, ft, t0.Add(time.Duration(i)*20*time.Second))
	}

	live := p.Flows()
	if len(live) != 2 {
		t.Fatalf("live flows = %d, want cap of 2", len(live))
	}
	if len(evicted) != 1 || evicted[0].SNI != flows[0].SNI {
		t.Fatalf("evicted = %+v, want oldest flow %s", evicted, flows[0].SNI)
	}
	seen := map[string]int{}
	for _, rec := range append(append([]*FlowRecord{}, live...), evicted...) {
		seen[rec.SNI]++
	}
	for _, ft := range flows {
		if seen[ft.SNI] != 1 {
			t.Errorf("flow %s covered %d times across Flows()+evictions, want exactly 1", ft.SNI, seen[ft.SNI])
		}
	}
	if st := p.TableStats(); st.Inserted != 3 || st.EvictedCap != 1 || st.Active != 2 {
		t.Errorf("table stats = %+v", st)
	}
}

// TestShardedEvictionHook checks the bounded config reaches every shard and
// that OnEvict fires from worker goroutines with the evictions counted.
func TestShardedEvictionHook(t *testing.T) {
	var mu sync.Mutex
	var evicted []*FlowRecord
	s := NewShardedWithConfig(emptyBank(), 2, Config{
		MaxFlows: 1,
		OnEvict: func(rec *FlowRecord, _ flowtable.Reason) {
			mu.Lock()
			evicted = append(evicted, rec)
			mu.Unlock()
		},
	})
	g := tracegen.New(47)
	t0 := time.Date(2023, 7, 7, 12, 0, 0, 0, time.UTC)
	const n = 12
	for i := 0; i < n; i++ {
		ft := renderFlow(t, g, "android_nativeApp", fingerprint.Netflix)
		for _, fr := range ft.Frames {
			s.HandlePacketBatch([]IngestPacket{{TS: t0.Add(fr.Offset), Data: fr.Data}})
		}
	}
	go func() {
		for range s.Results() {
		}
	}()
	s.Close()

	st := s.TableStats()
	if st.Active > 2 {
		t.Errorf("active flows = %d, want <= 1 per shard", st.Active)
	}
	mu.Lock()
	defer mu.Unlock()
	if uint64(len(evicted)) != st.EvictedCap {
		t.Errorf("OnEvict calls = %d, counter = %d", len(evicted), st.EvictedCap)
	}
	if got := uint64(len(evicted)) + st.Active; got != st.Inserted {
		t.Errorf("evicted(%d) + active(%d) != inserted(%d)", len(evicted), st.Active, st.Inserted)
	}
}

// TestShardedDeliverNeverBlocks pins the Results() contract: with a full
// buffer and no consumer, delivery drops and counts instead of blocking the
// shard worker (the deadlock the old unconditional send could hit).
func TestShardedDeliverNeverBlocks(t *testing.T) {
	s := &Sharded{results: make(chan *FlowRecord, 1)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.deliver(&FlowRecord{SNI: "a"})
		s.deliver(&FlowRecord{SNI: "b"})
		s.deliver(&FlowRecord{SNI: "c"})
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("deliver blocked on a full results buffer")
	}
	if got := s.IngestStats().DroppedResults; got != 2 {
		t.Errorf("dropped = %d, want 2", got)
	}
	if rec := <-s.results; rec.SNI != "a" {
		t.Errorf("buffered record = %q, want first delivery", rec.SNI)
	}
}
