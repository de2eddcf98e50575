package pipeline

import (
	"math/rand/v2"
	"net/netip"
	"sync"
	"testing"
	"time"

	"videoplat/internal/features"
	"videoplat/internal/fingerprint"
	"videoplat/internal/flowtable"
	"videoplat/internal/packet"
	"videoplat/internal/tlsproto"
	"videoplat/internal/tracegen"
)

// TestVerdictTaxonomy pins the verdict vocabulary: stable strings, no
// duplicates, and the zero value reading as pending.
func TestVerdictTaxonomy(t *testing.T) {
	var zero Verdict
	if zero.String() != "pending" {
		t.Errorf("zero verdict = %q, want pending", zero.String())
	}
	names := VerdictNames()
	if len(names) != NumVerdicts {
		t.Fatalf("VerdictNames length = %d, want %d", len(names), NumVerdicts)
	}
	seen := map[string]bool{}
	for i, name := range names {
		if name == "" {
			t.Errorf("verdict %d has no name", i)
		}
		if seen[name] {
			t.Errorf("duplicate verdict name %q", name)
		}
		seen[name] = true
		if got := Verdict(i).String(); got != name {
			t.Errorf("Verdict(%d).String() = %q, VerdictNames()[%d] = %q", i, got, i, name)
		}
	}
	// The whole vocabulary: windows and JSONL persist these strings.
	want := map[Verdict]string{
		VerdictClassified:       "classified",
		VerdictAbstained:        "abstained",
		VerdictNoHandshake:      "no-handshake",
		VerdictOversized:        "oversized",
		VerdictNotVideo:         "not-video",
		VerdictError:            "error",
		VerdictAbstainedECH:     "abstained-ech",
		VerdictAbstainedZeroRTT: "abstained-0rtt",
	}
	if len(want)+1 != NumVerdicts {
		t.Errorf("NumVerdicts = %d, want pending + the %d named here", NumVerdicts, len(want))
	}
	for v, name := range want {
		if v.String() != name {
			t.Errorf("%d.String() = %q, want %q", v, v.String(), name)
		}
	}
}

// TestPredictionMarginBounds checks the decisiveness margin both
// classification paths stamp: never negative, never above the top
// probability, and equal to it when only one class holds probability mass.
func TestPredictionMarginBounds(t *testing.T) {
	if testing.Short() {
		t.Skip("bank training is slow")
	}
	bank, ds := trainSmallBank(t, 2, 0.04)
	for _, ft := range ds.Flows[:60] {
		info, err := ExtractTrace(ft)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := bank.Classify(ft.Provider, ft.Transport, features.Extract(info))
		if err != nil {
			t.Fatal(err)
		}
		if pred.PlatformMargin < 0 || pred.PlatformMargin > pred.PlatformConf+1e-12 {
			t.Fatalf("margin %v outside [0, conf=%v]", pred.PlatformMargin, pred.PlatformConf)
		}
	}
}

// TestPipelineAssignsVerdicts runs full flows through the streaming pipeline
// and checks every finalized record carries a verdict consistent with its
// classification outcome.
func TestPipelineAssignsVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("bank training is slow")
	}
	bank, _ := trainSmallBank(t, 4, 0.03)
	p := New(bank)

	g := tracegen.New(99)
	for _, spec := range []struct {
		label string
		prov  fingerprint.Provider
		tr    fingerprint.Transport
	}{
		{"windows_chrome", fingerprint.YouTube, fingerprint.QUIC},
		{"iOS_nativeApp", fingerprint.Disney, fingerprint.TCP},
		{"ps5_nativeApp", fingerprint.Amazon, fingerprint.TCP},
	} {
		ft, err := g.Flow(spec.label, spec.prov, spec.tr, tracegen.FlowSpec{})
		if err != nil {
			t.Fatal(err)
		}
		for _, fr := range ft.Frames {
			if _, err := p.HandlePacket(ft.Start.Add(fr.Offset), fr.Data); err != nil {
				t.Fatal(err)
			}
		}
	}

	final := p.Flows()
	if len(final) != 3 {
		t.Fatalf("flow records = %d, want 3", len(final))
	}
	for _, rec := range final {
		switch {
		case rec.Verdict == VerdictClassified:
			if rec.Prediction.Status == Unknown {
				t.Errorf("%s: classified flow's prediction is %s", rec.SNI, rec.Prediction.Status)
			}
			if rec.Prediction.PlatformMargin <= 0 {
				t.Errorf("%s: classified flow margin = %v, want > 0", rec.SNI, rec.Prediction.PlatformMargin)
			}
		case rec.Verdict == VerdictAbstained:
			if rec.Prediction.Status != Unknown {
				t.Errorf("%s: abstained flow's prediction is %s", rec.SNI, rec.Prediction.Status)
			}
		default:
			if rec.Verdict == VerdictPending || rec.Prediction != (Prediction{}) {
				t.Errorf("%s: unclassified flow verdict = %s, prediction %+v", rec.SNI, rec.Verdict, rec.Prediction)
			}
		}
	}
}

// everyTerminalKind renders one flow of every terminal kind — plain, ECH,
// 0-RTT (confirmed and cut short), migrated, oversized (against a
// helloCap of 1024), not-video, no-handshake (given up on and cut
// short) — then the plain flow again an hour later, so that on the pipeline
// that owns it its first frame sweeps every idle flow out and it classifies
// once more: ten inserted flows in all.
func everyTerminalKind(t *testing.T) []IngestPacket {
	t.Helper()
	var out []IngestPacket
	trace := func(ft *tracegen.FlowTrace, shift time.Duration) {
		for _, fr := range ft.Frames {
			out = append(out, IngestPacket{TS: ft.Start.Add(shift + fr.Offset), Data: fr.Data})
		}
	}
	plain := renderAdversarial(t, 3, "windows_chrome", fingerprint.Netflix, fingerprint.TCP, fingerprint.Options{})
	trace(plain, 0)
	trace(renderAdversarial(t, 5, "macOS_safari", fingerprint.Amazon, fingerprint.TCP, fingerprint.Options{ECH: true}), 0)
	trace(renderAdversarial(t, 7, "android_chrome", fingerprint.YouTube, fingerprint.QUIC, fingerprint.Options{ZeroRTT: true}), 0)
	cut := renderAdversarial(t, 9, "iOS_chrome", fingerprint.YouTube, fingerprint.QUIC, fingerprint.Options{ZeroRTT: true})
	cut.Frames = cut.Frames[:2] // early data only: the short-header confirmation never arrives
	trace(cut, 0)
	trace(renderScenarioFlow(t, 11, fingerprint.Options{Migration: true}, true), 0)

	handmade := func(host byte) tcpFlowFrames {
		ff := newTCPFlowFrames()
		ff.src = netip.AddrFrom4([4]byte{192, 168, 7, host})
		return ff
	}
	feed := func(frame []byte) { out = append(out, IngestPacket{TS: plain.Start, Data: frame}) }
	oversized := handmade(1)
	feed(oversized.client(nil, packet.FlagSYN))
	feed(oversized.client(endlessRecordChunk(true, 600), packet.FlagACK|packet.FlagPSH))
	feed(oversized.client(endlessRecordChunk(false, 600), packet.FlagACK|packet.FlagPSH))

	fp, err := fingerprint.Generate(rand.New(rand.NewPCG(1, 1)), "windows_firefox", fingerprint.Netflix, fingerprint.TCP, fingerprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range fp.Hello.Extensions {
		if fp.Hello.Extensions[i].Type == tlsproto.ExtServerName {
			fp.Hello.Extensions[i].Data = tlsproto.ServerNameData("www.example.org")
		}
	}
	notVideo := handmade(2)
	feed(notVideo.client(nil, packet.FlagSYN))
	feed(notVideo.client(fp.Hello.MarshalRecord(), packet.FlagACK|packet.FlagPSH))

	silent := handmade(3)
	feed(silent.client(nil, packet.FlagSYN))
	for i := 0; i < 8; i++ {
		feed(silent.client(nil, packet.FlagACK)) // nine client frames, no hello
	}
	feed(handmade(4).client(nil, packet.FlagSYN)) // mid-handshake when the sweep comes

	trace(plain, time.Hour)
	return out
}

// classifiedByProvider counts the records that carry VerdictClassified by
// their provider, the way Stats.ClassifiedByProvider should have.
func classifiedByProvider(recs []*FlowRecord) (by [fingerprint.NumProviders]uint64) {
	for _, rec := range recs {
		if rec.Verdict == VerdictClassified {
			by[rec.Provider]++
		}
	}
	return by
}

// TestEveryFlowFinalizedExactlyOnce replays everyTerminalKind through a
// bounded pipeline, whose last flow moves packet time past the idle timeout
// so all the others evict. Every record must leave with a terminal verdict,
// and the verdict counters must account for each inserted flow once: per
// verdict they equal the records that carry it, in sum the table's
// insertions, and the classified ones split by provider the way the records
// do.
func TestEveryFlowFinalizedExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("bank training is slow")
	}
	bank, _ := trainSmallBank(t, 31, 0.02)
	var evicted []*FlowRecord
	p := NewWithConfig(bank, Config{
		MaxFlows:     64,
		IdleTimeout:  time.Minute,
		helloCap:     1024,
		ProviderHint: tracegen.ProviderOfAddr,
		OnEvict:      func(rec *FlowRecord, _ flowtable.Reason) { evicted = append(evicted, rec) },
	})
	for _, pkt := range everyTerminalKind(t) {
		if _, err := p.HandlePacket(pkt.TS, pkt.Data); err != nil {
			t.Fatal(err)
		}
	}

	st, table := p.Stats(), p.TableStats()
	recs := append(evicted, p.Flows()...)
	var carried [NumVerdicts]uint64
	for _, rec := range recs {
		carried[rec.Verdict]++
	}
	if carried[VerdictPending] != 0 {
		t.Errorf("%d records left with a pending verdict", carried[VerdictPending])
	}
	if carried != st.Verdicts {
		t.Errorf("Stats().Verdicts = %v, records carry %v", st.Verdicts, carried)
	}
	var sum uint64
	for _, n := range st.Verdicts {
		sum += n
	}
	if sum != table.Inserted || table.Inserted != 10 {
		t.Errorf("verdicts sum to %d over %d inserted flows, want 10 and 10", sum, table.Inserted)
	}
	for v, want := range map[Verdict]uint64{VerdictNoHandshake: 2, VerdictOversized: 1, VerdictNotVideo: 1} {
		if st.Verdicts[v] != want {
			t.Errorf("Verdicts[%s] = %d, want %d", v, st.Verdicts[v], want)
		}
	}
	// The ECH and the two 0-RTT flows end on their explicit abstain or, gated
	// by the provider hint, classified early; the cut-short one can only
	// abstain, at eviction.
	if got := st.Verdicts[VerdictAbstainedECH] + st.Verdicts[VerdictAbstainedZeroRTT] + st.EarlyClassified; got != 3 || st.Verdicts[VerdictAbstainedZeroRTT] == 0 {
		t.Errorf("degraded flows: abstained-ech %d + abstained-0rtt %d + early %d, want 3 with at least one abstained-0rtt",
			st.Verdicts[VerdictAbstainedECH], st.Verdicts[VerdictAbstainedZeroRTT], st.EarlyClassified)
	}

	if want := classifiedByProvider(recs); st.ClassifiedByProvider != want {
		t.Errorf("Stats().ClassifiedByProvider = %v, classified records carry %v", st.ClassifiedByProvider, want)
	}
	var byProvider uint64
	for _, n := range st.ClassifiedByProvider {
		byProvider += n
	}
	// Netflix twice (the plain flow and its replay) and the migrated YouTube
	// flow at least.
	if byProvider != st.Verdicts[VerdictClassified] || byProvider < 3 {
		t.Errorf("ClassifiedByProvider sums to %d, Verdicts[classified] = %d, want equal and at least 3",
			byProvider, st.Verdicts[VerdictClassified])
	}
}

// TestShardedCountersSurviveDroppedResults is the Sharded variant: the same
// frames through two shards with a one-slot Results buffer that nobody
// drains, so nearly every record offered to it is dropped. Drain then
// finalizes what the tables still hold, so OnEvict has delivered every
// record, and IngestStats' verdict and per-provider counts must equal what
// the records carry.
func TestShardedCountersSurviveDroppedResults(t *testing.T) {
	if testing.Short() {
		t.Skip("bank training is slow")
	}
	bank, _ := trainSmallBank(t, 31, 0.02)
	var mu sync.Mutex
	var recs []*FlowRecord
	s := NewShardedWithConfig(bank, 2, Config{
		MaxFlows:      64,
		IdleTimeout:   time.Minute,
		helloCap:      1024,
		ResultsBuffer: 1,
		ProviderHint:  tracegen.ProviderOfAddr,
		OnEvict: func(rec *FlowRecord, _ flowtable.Reason) {
			mu.Lock()
			recs = append(recs, rec)
			mu.Unlock()
		},
	})
	s.HandlePacketBatch(everyTerminalKind(t))
	s.Drain()
	s.Close()
	if left := s.Flows(); len(left) != 0 {
		t.Errorf("%d flows left in the tables after Drain", len(left))
	}

	st := s.IngestStats()
	var carried [NumVerdicts]uint64
	for _, rec := range recs {
		carried[rec.Verdict]++
	}
	if st.DroppedResults == 0 {
		t.Error("Results() dropped nothing: the test is not exercising a lagging consumer")
	}
	if st.Verdicts != carried || st.Verdicts[VerdictClassified] < 3 {
		t.Errorf("IngestStats().Verdicts = %v, records carry %v, want equal with at least 3 classified",
			st.Verdicts, carried)
	}
	if want := classifiedByProvider(recs); st.ClassifiedByProvider != want {
		t.Errorf("IngestStats().ClassifiedByProvider = %v, classified records carry %v", st.ClassifiedByProvider, want)
	}
}
