package pipeline

import (
	"math/rand/v2"
	"net/netip"
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
	for v, want := range map[Verdict]string{
		VerdictClassified:  "classified",
		VerdictAbstained:   "abstained",
		VerdictNoHandshake: "no-handshake",
		VerdictError:       "error",
	} {
		if v.String() != want {
			t.Errorf("%d.String() = %q, want %q", v, v.String(), want)
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
		case rec.Classified && rec.Prediction.Status != Unknown:
			if rec.Verdict != VerdictClassified {
				t.Errorf("%s: classified flow verdict = %s", rec.SNI, rec.Verdict)
			}
			if rec.Prediction.PlatformMargin <= 0 {
				t.Errorf("%s: classified flow margin = %v, want > 0", rec.SNI, rec.Prediction.PlatformMargin)
			}
		case rec.Classified:
			if rec.Verdict != VerdictAbstained {
				t.Errorf("%s: abstained flow verdict = %s", rec.SNI, rec.Verdict)
			}
		default:
			if rec.Verdict == VerdictPending || rec.Verdict == VerdictClassified {
				t.Errorf("%s: unclassified flow verdict = %s", rec.SNI, rec.Verdict)
			}
		}
	}
}

// TestEveryFlowFinalizedExactlyOnce replays one flow of every terminal kind
// — plain, ECH, 0-RTT (confirmed and cut short), migrated, oversized,
// not-video, no-handshake (given up on and cut short) — through a bounded
// pipeline, then moves packet time past the idle timeout so all of them
// evict. Every record must leave with a terminal verdict, and the verdict
// counters must account for each inserted flow once: per verdict they equal
// the records that carry it, and in sum the table's insertions.
func TestEveryFlowFinalizedExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("bank training is slow")
	}
	bank, _ := trainSmallBank(t, 31, 0.02)
	var evicted []*FlowRecord
	p := NewWithConfig(bank, Config{
		MaxFlows:      64,
		IdleTimeout:   time.Minute,
		MaxHelloBytes: 1024,
		ProviderHint:  tracegen.ProviderOfAddr,
		OnEvict:       func(rec *FlowRecord, _ flowtable.Reason) { evicted = append(evicted, rec) },
	})

	plain := renderAdversarial(t, 3, "windows_chrome", fingerprint.Netflix, fingerprint.TCP, fingerprint.Options{})
	feedTrace(p, plain)
	feedTrace(p, renderAdversarial(t, 5, "macOS_safari", fingerprint.Amazon, fingerprint.TCP, fingerprint.Options{ECH: true}))
	feedTrace(p, renderAdversarial(t, 7, "android_chrome", fingerprint.YouTube, fingerprint.QUIC, fingerprint.Options{ZeroRTT: true}))
	cut := renderAdversarial(t, 9, "iOS_chrome", fingerprint.YouTube, fingerprint.QUIC, fingerprint.Options{ZeroRTT: true})
	cut.Frames = cut.Frames[:2] // early data only: the short-header confirmation never arrives
	feedTrace(p, cut)
	feedTrace(p, renderScenarioFlow(t, 11, fingerprint.Options{Migration: true}, true))

	ts := plain.Start
	handmade := func(host byte) tcpFlowFrames {
		ff := newTCPFlowFrames()
		ff.src = netip.AddrFrom4([4]byte{192, 168, 7, host})
		return ff
	}
	feed := func(frame []byte) {
		t.Helper()
		if rec, err := p.HandlePacket(ts, frame); err != nil || rec != nil {
			t.Fatalf("hand-made frame classified or errored: %v %v", rec, err)
		}
	}
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

	// The plain flow again, an hour on: its first frame sweeps every idle
	// flow out, and it classifies, so nothing undecided stays behind.
	for _, fr := range plain.Frames {
		if _, err := p.HandlePacket(plain.Start.Add(time.Hour+fr.Offset), fr.Data); err != nil {
			t.Fatal(err)
		}
	}

	st, table := p.Stats(), p.TableStats()
	var carried [NumVerdicts]uint64
	for _, rec := range append(evicted, p.Flows()...) {
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
}
