package pipeline

import (
	"slices"
	"strings"
	"testing"
	"time"

	"videoplat/internal/fingerprint"
	"videoplat/internal/flowtable"
	"videoplat/internal/obs"
	"videoplat/internal/packet"
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
		s.HandlePacketBatch([]IngestPacket{{TS: ft.Start.Add(fr.Offset), Data: fr.Data}})
	}
}

// TestObserverRecordsStages drives real flows through an observed Sharded
// (empty bank, so classification errors — the stage still times) and checks
// every ingest-side stage collected samples.
func TestObserverRecordsStages(t *testing.T) {
	bank := &Bank{}
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

// TestStageCountsExact pins what each stage's sample count means, over a
// fixed render of TCP and QUIC flows (with undecodable and off-port frames
// among them) replayed through an observed 2-shard Sharded in batches of
// 1, 5, 64 and 17 frames, then drained. decode counts every frame handed to
// HandlePacketBatch, queue_wait every batch message sent to a shard,
// classify every flow that reached ClassifyHandshake (all of them: each
// carries a provider's SNI), and assembly every client frame a flow
// consumed while undecided — up to the one that completed its hello. The
// expectations come from the render: the shard is the one packet.Summary's
// hash picks (no flow migrates, so no cache overrides it), and where a
// flow's hello completes is what a fresh assembler says of its client
// frames.
func TestStageCountsExact(t *testing.T) {
	g := tracegen.New(46)
	var flows [][]IngestPacket
	var wantFlows, wantAssembly uint64
	for i, label := range []string{"windows_chrome", "iOS_nativeApp", "macOS_safari", "android_chrome", "windows_firefox", "androidTV_nativeApp"} {
		prov := fingerprint.AllProviders()[i%len(fingerprint.AllProviders())]
		if !fingerprint.SupportMatrix(label, prov) {
			prov = fingerprint.YouTube
		}
		for _, tr := range []fingerprint.Transport{fingerprint.TCP, fingerprint.QUIC} {
			if tr == fingerprint.TCP && !fingerprint.SupportsTCP(label, prov) ||
				tr == fingerprint.QUIC && !fingerprint.SupportsQUIC(label, prov) {
				continue
			}
			ft, err := g.Flow(label, prov, tr, tracegen.FlowSpec{PayloadFrames: 4})
			if err != nil {
				t.Fatal(err)
			}
			_, done := assembleFlight(clientData(ft))
			if done < 0 {
				t.Fatalf("%s/%s: the render assembles no hello", label, tr)
			}
			wantFlows++
			wantAssembly += uint64(done + 1)
			flows = append(flows, tracePackets(ft, 0))
		}
	}
	pkts := interleave(flows...)
	pkts = slices.Insert(pkts, 3, IngestPacket{TS: pkts[0].TS, Data: icmpFrame(t)}, IngestPacket{TS: pkts[0].TS, Data: tcpFrame(t, 50000, 80)})

	s, o, _ := observedSharded(emptyBank(), 1)
	var wantMsgs uint64
	sizes := []int{1, 5, 64, 17}
	for i, k := 0, 0; i < len(pkts); k++ {
		batch := pkts[i:min(i+sizes[k%len(sizes)], len(pkts))]
		i += len(batch)
		var to [2]bool
		for _, p := range batch {
			var sum packet.Summary
			if sum.Decode(p.Data) && isVideoPort(sum.Key) {
				to[hashWords(&sum.Words)%2] = true
			}
		}
		for _, hit := range to {
			if hit {
				wantMsgs++
			}
		}
		s.HandlePacketBatch(batch)
	}
	s.Drain()
	s.Close()

	st := s.IngestStats()
	if st.Ignored != 1 || st.Filtered != 1 || st.Verdicts[VerdictError] != wantFlows {
		t.Fatalf("ignored %d, filtered %d, error verdicts %d; want 1, 1, %d", st.Ignored, st.Filtered, st.Verdicts[VerdictError], wantFlows)
	}
	for _, c := range []struct {
		stage obs.Stage
		want  uint64
	}{
		{obs.StageDecode, uint64(len(pkts))},
		{obs.StageQueueWait, wantMsgs},
		{obs.StageClassify, wantFlows},
		{obs.StageAssembly, wantAssembly},
	} {
		if got := o.Stage(c.stage).Snapshot().Count; got != c.want {
			t.Errorf("%s count = %d, want %d", c.stage, got, c.want)
		}
	}
}

// TestObserverOffIsInert pins that a pipeline without observer or tracer
// records nothing and spans never exist — the nil checks must keep the
// un-instrumented path identical to before this layer existed.
func TestObserverOffIsInert(t *testing.T) {
	bank := &Bank{}
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

// TestSpanVerdictNamesThePlatform traces every golden flow and pins that a
// judged flow's span says what the selector decided: a composite flow's
// platform label ("android_chrome", not "android/chrome"), a partial flow's
// confident half, "unknown" for an abstain — and which gate that was.
func TestSpanVerdictNamesThePlatform(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a bank")
	}
	tr := obs.NewTracer(obs.TracerConfig{SampleEvery: 1})
	p := NewWithConfig(goldenBank(t), Config{Tracer: tr})
	byStatus := map[Status]int{}
	for _, ft := range goldenEvalFlows(t) {
		var rec *FlowRecord
		for _, fr := range ft.Frames {
			r, err := p.HandlePacket(ft.Start.Add(fr.Offset), fr.Data)
			if err != nil {
				t.Fatal(err)
			}
			if r != nil {
				rec = r
			}
		}
		if rec == nil {
			continue
		}
		pred := rec.Prediction
		byStatus[pred.Status]++
		want := pred.Platform
		switch pred.Status {
		case Partial:
			want = strings.Trim(pred.Device+"/"+pred.Agent, "/")
		case Unknown:
			want = "unknown"
		}
		sp := tr.Snapshot(1).Recent[0]
		if sp.SNI != rec.SNI || sp.Verdict != want || sp.Status != pred.Status.String() {
			t.Fatalf("%s flow %s: span verdict %q status %q, want %q %q",
				pred.Status, ft.Label, sp.Verdict, sp.Status, want, pred.Status)
		}
	}
	if byStatus[Composite] == 0 || byStatus[Partial] == 0 || byStatus[Unknown] == 0 {
		t.Fatalf("judged flows by status %v: want every status", byStatus)
	}
}

// TestSpanEvictedVerdict forces cap eviction of a flow mid-handshake and
// checks its span finishes with the "evicted" verdict.
func TestSpanEvictedVerdict(t *testing.T) {
	bank := &Bank{}
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

// TestSpanReadsItsRecord pins that a finished span's frame count, first
// packet time and classify time are its flow record's at that moment:
// finishSpan copies them from the FlowRecord, which owns them, instead of
// the span counting them again. It traces every golden flow, one flow that
// migrates mid-handshake, and one flow evicted before its handshake
// resolved.
func TestSpanReadsItsRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a bank")
	}
	tr := obs.NewTracer(obs.TracerConfig{SampleEvery: 1})
	checked := 0
	check := func(name string, rec *FlowRecord) {
		t.Helper()
		snap := tr.Snapshot(1)
		if snap.Finished != uint64(checked+1) {
			t.Fatalf("%s: %d spans finished, want %d", name, snap.Finished, checked+1)
		}
		checked++
		sp := snap.Recent[0]
		if sp.Frames != rec.PacketsUp+rec.PacketsDown || !sp.FirstPacket.Equal(rec.FirstSeen) || sp.ClassifyNS != rec.ClassifyNanos {
			t.Errorf("%s: span frames %d, first packet %v, classify %d ns; record %d, %v, %d ns", name,
				sp.Frames, sp.FirstPacket, sp.ClassifyNS, rec.PacketsUp+rec.PacketsDown, rec.FirstSeen, rec.ClassifyNanos)
		}
	}

	bank := goldenBank(t)
	p := NewWithConfig(bank, Config{Tracer: tr})
	feed := func(ft *tracegen.FlowTrace) *FlowRecord {
		var rec *FlowRecord
		for _, fr := range ft.Frames {
			r, err := p.HandlePacket(ft.Start.Add(fr.Offset), fr.Data)
			if err != nil {
				t.Fatal(err)
			}
			if r != nil {
				rec = r
			}
		}
		if rec == nil {
			t.Fatalf("%s flow %s was not classified", ft.Provider, ft.Label)
		}
		return rec
	}
	timed := 0
	for _, ft := range goldenEvalFlows(t) {
		rec := feed(ft)
		check(ft.Label, rec)
		if rec.ClassifyNanos > 0 {
			timed++
		}
	}
	if timed == 0 {
		t.Error("no traced flow carries a classify time")
	}
	migrated := renderScenarioFlow(t, 41, fingerprint.Options{Migration: true}, true)
	check("migrating", feed(migrated))
	if p.TableStats().Rekeyed != 1 {
		t.Fatalf("rekeyed %d flows, want the migrating one", p.TableStats().Rekeyed)
	}

	var evicted FlowRecord
	q := NewWithConfig(bank, Config{MaxFlows: 1, Tracer: tr,
		OnEvict: func(rec *FlowRecord, _ flowtable.Reason) { evicted = *rec }})
	g := tracegen.New(9)
	for i, label := range []string{"windows_chrome", "macOS_safari"} {
		ft, err := g.Flow(label, fingerprint.Netflix, fingerprint.TCP, tracegen.FlowSpec{})
		if err != nil {
			t.Fatal(err)
		}
		// The first flow's SYN and SYN-ACK leave it mid-handshake; the next
		// flow's arrival evicts it (MaxFlows: 1).
		for _, fr := range ft.Frames[:2-i] {
			q.HandlePacket(ft.Start.Add(fr.Offset), fr.Data)
		}
	}
	if evicted.Verdict != VerdictNoHandshake || evicted.PacketsUp != 1 || evicted.PacketsDown != 1 {
		t.Fatalf("evicted %s with %d/%d packets, want an undecided flow's no-handshake with 1/1",
			evicted.Verdict, evicted.PacketsUp, evicted.PacketsDown)
	}
	check("evicted", &evicted)
}
