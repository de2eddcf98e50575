package pipeline

import (
	"testing"
	"time"

	"videoplat/internal/fingerprint"
	"videoplat/internal/obs"
	"videoplat/internal/tracegen"
)

// observedSharded builds a 2-shard pipeline with full latency observability
// and a sample-everything tracer over the given bank.
func observedSharded(bank *Bank, every int) (*Sharded, *obs.PipelineObserver, *obs.Tracer) {
	o := obs.NewPipelineObserver()
	tr := obs.NewTracer(obs.TracerConfig{SampleEvery: every})
	s := NewShardedWithConfig(bank, 2, Config{Observer: o, Tracer: tr})
	return s, o, tr
}

// feedFlow replays one synthetic video flow's frames through the sharded
// ingest path.
func feedShardedFlow(t *testing.T, s *Sharded, g *tracegen.Generator, label string) {
	t.Helper()
	prov := fingerprint.Netflix
	tr := fingerprint.TCP
	if !fingerprint.SupportsTCP(label, prov) {
		tr = fingerprint.QUIC
	}
	ft, err := g.Flow(label, prov, tr, tracegen.FlowSpec{PayloadFrames: 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, fr := range ft.Frames {
		s.HandlePacket(ft.Start.Add(fr.Offset), fr.Data)
	}
}

// TestObserverRecordsStages drives real flows through an observed Sharded
// (empty bank, so classification errors — the stage still times) and checks
// every ingest-side stage collected samples.
func TestObserverRecordsStages(t *testing.T) {
	bank := &Bank{models: map[bankKey]*Model{}}
	s, o, tr := observedSharded(bank, 1)
	g := tracegen.New(7)
	for _, label := range []string{"windows_chrome", "iOS_nativeApp", "macOS_safari"} {
		feedShardedFlow(t, s, g, label)
	}
	s.Close()

	byStage := map[string]obs.StageStats{}
	for _, st := range o.StageStats() {
		byStage[st.Stage] = st
	}
	for _, stage := range []string{"decode", "queue_wait", "assembly", "classify"} {
		if byStage[stage].Count == 0 {
			t.Errorf("stage %q recorded no samples", stage)
		}
	}
	if byStage["decode"].MaxMs <= 0 {
		t.Error("decode max latency is zero")
	}

	snap := tr.Snapshot(0)
	if snap.Admitted == 0 || snap.Finished == 0 {
		t.Fatalf("tracer admitted/finished = %d/%d, want >0/>0", snap.Admitted, snap.Finished)
	}
	// Every flow classifies against an empty bank → every span ends in
	// "error" with the handshake's SNI and some assembly time attached.
	var sawError bool
	for _, sp := range snap.Recent {
		if sp.Verdict == "error" {
			sawError = true
			if sp.SNI == "" {
				t.Errorf("span %d: error verdict without SNI", sp.ID)
			}
			if sp.AssemblyNS <= 0 {
				t.Errorf("span %d: no assembly time", sp.ID)
			}
			if sp.ClassifyNS <= 0 {
				t.Errorf("span %d: no classify time", sp.ID)
			}
			if sp.Frames == 0 {
				t.Errorf("span %d: no frames counted", sp.ID)
			}
			if sp.Shard < 0 || sp.Shard > 1 {
				t.Errorf("span %d: shard = %d out of range", sp.ID, sp.Shard)
			}
			if sp.Flow == "" {
				t.Errorf("span %d: empty flow key", sp.ID)
			}
		}
	}
	if !sawError {
		t.Fatalf("no error-verdict span among %d recent spans", len(snap.Recent))
	}
}

// TestObserverOffIsInert pins that a pipeline without observer or tracer
// records nothing and spans never exist — the nil checks must keep the
// un-instrumented path identical to before this layer existed.
func TestObserverOffIsInert(t *testing.T) {
	bank := &Bank{models: map[bankKey]*Model{}}
	s := NewShardedWithConfig(bank, 2, Config{})
	g := tracegen.New(7)
	feedShardedFlow(t, s, g, "windows_chrome")
	s.Close()
	for _, rec := range s.Flows() {
		if rec.ClassifyNanos != 0 {
			t.Errorf("ClassifyNanos = %d without an observer, want 0", rec.ClassifyNanos)
		}
	}
}

// TestSpanVerdicts checks the terminal verdicts a span can carry: a
// classified flow's platform label (trained bank) and the evicted path.
func TestSpanVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("bank training is slow")
	}
	bank, _ := trainSmallBank(t, 31, 0.02)
	s, _, tr := observedSharded(bank, 1)
	g := tracegen.New(21)
	feedShardedFlow(t, s, g, "windows_chrome")
	s.Close()

	snap := tr.Snapshot(0)
	var classified *obs.Span
	for i := range snap.Recent {
		if snap.Recent[i].ClassifyNS > 0 {
			classified = &snap.Recent[i]
		}
	}
	if classified == nil {
		t.Fatal("no classified span recorded")
	}
	if classified.Verdict == "" || classified.Verdict == "error" {
		t.Fatalf("classified span verdict = %q", classified.Verdict)
	}
	if classified.ModelVersion != bank.Version {
		t.Errorf("span model version = %q, want %q", classified.ModelVersion, bank.Version)
	}
	if classified.SNI == "" {
		t.Error("classified span has no SNI")
	}

	// Classified flows carry their classification latency on the record.
	var sawNanos bool
	for _, rec := range s.Flows() {
		if rec.Verdict.ClassifierRan() && rec.ClassifyNanos > 0 {
			sawNanos = true
		}
	}
	if !sawNanos {
		t.Error("no classified record carries ClassifyNanos")
	}
}

// TestSpanEvictedVerdict forces cap eviction of a flow mid-handshake and
// checks its span finishes with the "evicted" verdict.
func TestSpanEvictedVerdict(t *testing.T) {
	bank := &Bank{models: map[bankKey]*Model{}}
	o := obs.NewPipelineObserver()
	tr := obs.NewTracer(obs.TracerConfig{SampleEvery: 1})
	p := NewWithConfig(bank, Config{MaxFlows: 1, Observer: o, Tracer: tr})
	g := tracegen.New(9)
	now := time.Now()
	for i, label := range []string{"windows_chrome", "macOS_safari"} {
		ft, err := g.Flow(label, fingerprint.Netflix, fingerprint.TCP, tracegen.FlowSpec{})
		if err != nil {
			t.Fatal(err)
		}
		// Feed only the first client frame so the flow stays mid-handshake,
		// then let the next flow's arrival evict it (MaxFlows: 1).
		if _, err := p.HandlePacket(now.Add(time.Duration(i)*time.Second), ft.Frames[0].Data); err != nil {
			t.Fatal(err)
		}
	}
	snap := tr.Snapshot(0)
	var evicted bool
	for _, sp := range snap.Recent {
		if sp.Verdict == "evicted" {
			evicted = true
		}
	}
	if !evicted {
		t.Fatalf("no evicted-verdict span; recent = %+v", snap.Recent)
	}
}
