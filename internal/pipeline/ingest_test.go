package pipeline

import (
	"fmt"
	"net/netip"
	"sync"
	"testing"
	"time"

	"videoplat/internal/fingerprint"
	"videoplat/internal/flowtable"
	"videoplat/internal/obs"
	"videoplat/internal/packet"
	"videoplat/internal/tracegen"
)

// tcpFrame builds a minimal decodable Ethernet/IPv4/TCP frame for the given
// ports — enough for the ingest path to extract a 5-tuple and route it.
func tcpFrame(t *testing.T, srcPort, dstPort uint16) []byte {
	t.Helper()
	src := netip.MustParseAddr("10.1.2.3")
	dst := netip.MustParseAddr("93.184.216.34")
	tcp := packet.TCP{SrcPort: srcPort, DstPort: dstPort, Flags: packet.FlagACK, Window: 64240}
	ip := packet.IPv4{TTL: 64, Protocol: packet.ProtoTCP, Src: src, Dst: dst}
	eth := packet.Ethernet{EtherType: packet.EtherTypeIPv4}
	return eth.Append(nil, ip.Append(nil, tcp.Append(nil, nil, src, dst)))
}

// icmpFrame builds a decodable IPv4 frame that is neither TCP nor UDP.
func icmpFrame(t *testing.T) []byte {
	t.Helper()
	ip := packet.IPv4{TTL: 64, Protocol: 1, // ICMP
		Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2")}
	eth := packet.Ethernet{EtherType: packet.EtherTypeIPv4}
	return eth.Append(nil, ip.Append(nil, []byte{8, 0, 0, 0}))
}

// TestIngestDropsUndecodableFrames pins the satellite bugfix: frames that
// fail to parse or are non-TCP/UDP used to land on shard 0 (idx=0
// fallback), skewing its load and wasting a copy + channel send each. They
// must now be dropped at ingest, counted in IngestStats, and reach no shard.
func TestIngestDropsUndecodableFrames(t *testing.T) {
	bank := &Bank{models: map[bankKey]*Model{}}
	s := NewSharded(bank, 4)
	now := time.Now()

	garbage := [][]byte{
		{1, 2, 3},        // truncated ethernet
		make([]byte, 14), // ethernet with unsupported EtherType 0 — no flow
		icmpFrame(t),     // decodes, but no TCP/UDP 5-tuple
	}
	for _, fr := range garbage {
		s.HandlePacket(now, fr)
	}
	s.HandlePacketBatch([]IngestPacket{
		{TS: now, Data: garbage[0]},
		{TS: now, Data: icmpFrame(t)},
	})

	// Decodable flows off port 443 are dropped by the ingest-time video
	// filter and counted separately from undecodable frames.
	s.HandlePacket(now, tcpFrame(t, 51000, 8080))
	s.HandlePacketBatch([]IngestPacket{{TS: now, Data: tcpFrame(t, 51001, 22)}})

	// Decodable TCP frames across many distinct flows: these must spread
	// over the shards rather than pile onto shard 0.
	const flows = 64
	for i := 0; i < flows; i++ {
		s.HandlePacket(now, tcpFrame(t, uint16(10000+i), 443))
	}
	s.Close()

	if got := s.IngestStats().Ignored; got != 5 {
		t.Errorf("IngestStats().Ignored = %d, want 5", got)
	}
	if got := s.IngestStats().Filtered; got != 2 {
		t.Errorf("IngestStats().Filtered = %d, want 2", got)
	}
	var total uint64
	for i, sh := range s.shards {
		n := sh.p.Stats().Packets
		if n == 0 {
			t.Errorf("shard %d saw no packets: undecodable-drop must not starve shards", i)
		}
		total += n
	}
	if total != flows {
		t.Errorf("shards saw %d packets, want %d (ignored frames must reach none)", total, flows)
	}
	if s.shards[0].p.Stats().Packets == flows {
		t.Error("all packets on shard 0: ingest still skews")
	}
}

// TestBatchedMatchesSinglePacket is the parse-once equivalence check: every
// entry point — plain Pipeline.HandlePacket, Sharded.HandlePacket and
// Sharded.HandlePacketBatch at several batch sizes — must produce exactly
// the same terminal record per flow: same SNIs, verdicts, predictions, byte
// and packet telemetry. Terminal records are OnEvict's plus Flows().
func TestBatchedMatchesSinglePacket(t *testing.T) {
	if testing.Short() {
		t.Skip("bank training is slow")
	}
	bank, _ := trainSmallBank(t, 31, 0.02)

	g := tracegen.New(77)
	var all []*tracegen.FlowTrace
	specs := []struct {
		label string
		prov  fingerprint.Provider
		tr    fingerprint.Transport
	}{
		{"windows_chrome", fingerprint.YouTube, fingerprint.QUIC},
		{"windows_firefox", fingerprint.Netflix, fingerprint.TCP},
		{"iOS_nativeApp", fingerprint.Disney, fingerprint.TCP},
		{"androidTV_nativeApp", fingerprint.Amazon, fingerprint.TCP},
		{"macOS_safari", fingerprint.Amazon, fingerprint.TCP},
		{"ps5_nativeApp", fingerprint.Netflix, fingerprint.TCP},
	}
	for _, sp := range specs {
		ft, err := g.Flow(sp.label, sp.prov, sp.tr, tracegen.FlowSpec{PayloadFrames: 3})
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, ft)
	}
	// Interleave packets across flows, as a tap would deliver them.
	var interleaved []IngestPacket
	for j := 0; ; j++ {
		any := false
		for _, ft := range all {
			if j < len(ft.Frames) {
				interleaved = append(interleaved, IngestPacket{TS: ft.Start.Add(ft.Frames[j].Offset), Data: ft.Frames[j].Data})
				any = true
			}
		}
		if !any {
			break
		}
	}
	// Cap pressure: flow A runs to its verdict, then flow B arrives and
	// evicts it from a one-flow table — within one ingest batch when the
	// batch is large enough.
	var capPressure []IngestPacket
	for _, ft := range all[1:3] {
		for _, fr := range ft.Frames {
			capPressure = append(capPressure, IngestPacket{TS: ft.Start.Add(fr.Offset), Data: fr.Data})
		}
	}

	type summary struct {
		verdict    Verdict
		platform   string
		status     Status
		classified bool
		bytesDown  int64
		bytesUp    int64
		pktsDown   int
		pktsUp     int
	}
	for _, in := range []struct {
		name   string
		shards int
		cfg    Config
		pkts   []IngestPacket
		flows  int
	}{
		{"interleaved", 4, Config{}, interleaved, len(specs)},
		{"cap-pressure", 1, Config{MaxFlows: 1}, capPressure, 2},
	} {
		// run replays the input through one entry point: batchSize < 0 is
		// the plain Pipeline, 0 is Sharded.HandlePacket, anything else a
		// Sharded.HandlePacketBatch size.
		run := func(batchSize int) map[string]summary {
			var mu sync.Mutex
			out := map[string]summary{}
			record := func(rec *FlowRecord) {
				mu.Lock()
				defer mu.Unlock()
				if _, dup := out[rec.SNI]; dup {
					t.Errorf("%s batch=%d: flow %s has two terminal records", in.name, batchSize, rec.SNI)
				}
				out[rec.SNI] = summary{
					verdict:    rec.Verdict,
					platform:   rec.Prediction.Platform,
					status:     rec.Prediction.Status,
					classified: rec.Classified,
					bytesDown:  rec.BytesDown,
					bytesUp:    rec.BytesUp,
					pktsDown:   rec.PacketsDown,
					pktsUp:     rec.PacketsUp,
				}
			}
			cfg := in.cfg
			cfg.OnEvict = func(rec *FlowRecord, _ flowtable.Reason) { record(rec) }
			if batchSize < 0 {
				p := NewWithConfig(bank, cfg)
				for _, pkt := range in.pkts {
					if _, err := p.HandlePacket(pkt.TS, pkt.Data); err != nil {
						t.Fatal(err)
					}
				}
				for _, rec := range p.Flows() {
					record(rec)
				}
				return out
			}
			s := NewShardedWithConfig(bank, in.shards, cfg)
			go func() {
				for range s.Results() {
				}
			}()
			if batchSize == 0 {
				for _, pkt := range in.pkts {
					s.HandlePacket(pkt.TS, pkt.Data)
				}
			} else {
				for off := 0; off < len(in.pkts); off += batchSize {
					s.HandlePacketBatch(in.pkts[off:min(off+batchSize, len(in.pkts))])
				}
			}
			s.Close()
			for _, rec := range s.Flows() {
				record(rec)
			}
			return out
		}

		want := run(-1)
		if len(want) != in.flows {
			t.Fatalf("%s: plain pipeline finalized %d flows, want %d", in.name, len(want), in.flows)
		}
		for sni, w := range want {
			if w.verdict != VerdictClassified && w.verdict != VerdictAbstained {
				t.Errorf("%s: flow %s verdict = %s, want a classification outcome", in.name, sni, w.verdict)
			}
		}
		for _, batchSize := range []int{0, 7, 64, len(in.pkts)} {
			got := run(batchSize)
			if len(got) != len(want) {
				t.Fatalf("%s batch=%d finalized %d flows, plain pipeline %d", in.name, batchSize, len(got), len(want))
			}
			for sni, w := range want {
				if have, ok := got[sni]; !ok || have != w {
					t.Errorf("%s batch=%d flow %s = %+v, plain pipeline = %+v", in.name, batchSize, sni, have, w)
				}
			}
		}
	}
}

// TestResultsDropUnderStalledConsumer pins the revised best-effort
// contract: the results buffer is configurable (and shard-count-scaled by
// default), and a consumer that stops draining costs exactly the overflow,
// counted in IngestStats.DroppedResults, while Close still never deadlocks.
func TestResultsDropUnderStalledConsumer(t *testing.T) {
	if testing.Short() {
		t.Skip("bank training is slow")
	}
	bank, _ := trainSmallBank(t, 31, 0.02)

	const buffer = 2
	s := NewShardedWithConfig(bank, 1, Config{ResultsBuffer: buffer})
	g := tracegen.New(99)
	labels := []string{"windows_chrome", "windows_firefox", "iOS_nativeApp",
		"macOS_safari", "ps5_nativeApp", "androidTV_nativeApp"}
	for i, label := range labels {
		prov := fingerprint.AllProviders()[i%4]
		if !fingerprint.SupportMatrix(label, prov) {
			prov = fingerprint.Netflix
		}
		tr := fingerprint.TCP
		if !fingerprint.SupportsTCP(label, prov) {
			tr = fingerprint.QUIC
		}
		ft, err := g.Flow(label, prov, tr, tracegen.FlowSpec{PayloadFrames: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, fr := range ft.Frames {
			s.HandlePacket(ft.Start.Add(fr.Offset), fr.Data)
		}
	}
	s.Close() // nobody drained Results; Close must not deadlock

	buffered := len(s.results)
	if buffered != buffer {
		t.Errorf("buffered results = %d, want full buffer %d", buffered, buffer)
	}
	want := uint64(len(labels) - buffer)
	if got := s.IngestStats(); got.DroppedResults != want || got.Ignored != 0 {
		t.Errorf("IngestStats() = %+v, want %d dropped results (%d flows, buffer %d) and nothing ignored",
			got, want, len(labels), buffer)
	}
}

// TestShardedDefaultQueueDepths pins the shard-count-scaled defaults.
func TestShardedDefaultQueueDepths(t *testing.T) {
	bank := &Bank{models: map[bankKey]*Model{}}
	for _, n := range []int{1, 4} {
		s := NewSharded(bank, n)
		if got, want := cap(s.results), DefaultResultsBufferPerShard*n; got != want {
			t.Errorf("n=%d: results buffer = %d, want %d", n, got, want)
		}
		for _, sh := range s.shards {
			if got := cap(sh.in); got != DefaultShardQueueDepth {
				t.Errorf("n=%d: shard inbox depth = %d, want %d", n, got, DefaultShardQueueDepth)
			}
		}
		s.Close()
	}
	s := NewShardedWithConfig(bank, 2, Config{ShardQueueDepth: 8, ResultsBuffer: 5})
	if cap(s.results) != 5 || cap(s.shards[0].in) != 8 {
		t.Errorf("explicit depths not honoured: results=%d inbox=%d",
			cap(s.results), cap(s.shards[0].in))
	}
	s.Close()
}

// TestIngestStallCounter drives more batches than a one-slot inbox can hold
// so ingest must block at least once, and the stall is counted.
func TestIngestStallCounter(t *testing.T) {
	bank := &Bank{models: map[bankKey]*Model{}}
	s := NewShardedWithConfig(bank, 1, Config{ShardQueueDepth: 1})
	now := time.Now()
	for i := 0; i < 2000; i++ {
		s.HandlePacket(now, tcpFrame(t, uint16(1000+i%512), 443))
	}
	s.Close()
	if s.IngestStats().Stalls == 0 {
		t.Error("no stalls recorded while flooding a depth-1 inbox")
	}
}

// BenchmarkIngest isolates the ingest layer itself — steady-state frames of
// established (done) flows through a warm Sharded, no classification — so
// the per-frame cost of routing (copy, parse, hash, queue) is measurable
// apart from the classifier. Compares the per-packet and batched entry
// points.
func BenchmarkIngest(b *testing.B) {
	for _, shards := range []int{1, 4} {
		name := func(v string) string { return fmt.Sprintf("shards=%d-%s", shards, v) }
		b.Run(name("single"), func(b *testing.B) { benchIngest(b, shards, 0, Config{}) })
		b.Run(name("batch64"), func(b *testing.B) { benchIngest(b, shards, 64, Config{}) })
	}
}

// BenchmarkIngestInstrumented is BenchmarkIngest with the full latency
// observability attached (per-stage histograms plus a sampling tracer) —
// the CI-pinned proof that instrumentation keeps the steady-state ingest
// path at 0 allocs/pkt. Spans are admitted only at flow creation, which the
// warm-up performs outside the timed region.
func BenchmarkIngestInstrumented(b *testing.B) {
	cfg := Config{
		Observer: obs.NewPipelineObserver(),
		Tracer:   obs.NewTracer(obs.TracerConfig{SampleEvery: 64}),
	}
	for _, shards := range []int{1, 4} {
		name := func(v string) string { return fmt.Sprintf("shards=%d-%s", shards, v) }
		b.Run(name("single"), func(b *testing.B) { benchIngest(b, shards, 0, cfg) })
		b.Run(name("batch64"), func(b *testing.B) { benchIngest(b, shards, 64, cfg) })
	}
}

// benchIngest isolates the ingest layer: steady-state frames of established
// (done) flows through a warm Sharded under cfg's instrumentation.
func benchIngest(b *testing.B, shards, batchSize int, cfg Config) {
	const flows = 256
	frames := make([][]byte, flows)
	src := netip.MustParseAddr("10.1.2.3")
	dst := netip.MustParseAddr("93.184.216.34")
	for i := range frames {
		tcp := packet.TCP{SrcPort: uint16(10000 + i), DstPort: 443, Flags: packet.FlagACK, Window: 64240}
		ip := packet.IPv4{TTL: 64, Protocol: packet.ProtoTCP, Src: src, Dst: dst}
		eth := packet.Ethernet{EtherType: packet.EtherTypeIPv4}
		payload := make([]byte, 1200)
		frames[i] = eth.Append(nil, ip.Append(nil, tcp.Append(nil, payload, src, dst)))
	}
	now := time.Now()
	bank := &Bank{models: map[bankKey]*Model{}}

	s := NewShardedWithConfig(bank, shards, cfg)
	go func() {
		for range s.Results() {
		}
	}()
	var pkts []IngestPacket
	for _, fr := range frames {
		pkts = append(pkts, IngestPacket{TS: now, Data: fr})
	}
	feed := func() {
		if batchSize <= 1 {
			for _, p := range pkts {
				s.HandlePacket(p.TS, p.Data)
			}
		} else {
			for off := 0; off < len(pkts); off += batchSize {
				s.HandlePacketBatch(pkts[off:min(off+batchSize, len(pkts))])
			}
		}
	}
	for i := 0; i < 12; i++ {
		feed() // mark every flow done, warm the pools
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		feed()
	}
	b.StopTimer()
	s.Close()
	b.ReportMetric(float64(b.N*len(frames))/b.Elapsed().Seconds(), "pkts/s")
}
