package pipeline

import (
	"testing"
	"time"

	"videoplat/internal/fingerprint"
	"videoplat/internal/flowtable"
	"videoplat/internal/tracegen"
)

// renderAdversarial renders one flow with the given scenario options.
func renderAdversarial(t *testing.T, seed uint64, label string, prov fingerprint.Provider, tr fingerprint.Transport, opts fingerprint.Options) *tracegen.FlowTrace {
	t.Helper()
	ft, err := tracegen.New(seed).Flow(label, prov, tr, tracegen.FlowSpec{Options: opts, PayloadFrames: 2})
	if err != nil {
		t.Fatal(err)
	}
	return ft
}

// TestECHAbstainsWithoutHint pins the ECH terminal verdict: the outer hello's
// fronted SNI matches no video provider, and with no provider hint the flow
// must finalize as an explicit abstained-ech — not not-video, not pending —
// with the observable (outer) name on the record.
func TestECHAbstainsWithoutHint(t *testing.T) {
	ft := renderAdversarial(t, 11, "windows_chrome", fingerprint.Netflix, fingerprint.TCP, fingerprint.Options{ECH: true})
	p := New(emptyBank())
	feedTrace(p, ft)

	recs := p.Flows()
	if len(recs) != 1 {
		t.Fatalf("tracked %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Verdict != VerdictAbstainedECH {
		t.Fatalf("verdict = %s, want %s", rec.Verdict, VerdictAbstainedECH)
	}
	if rec.SNI == "" {
		t.Error("record lost the outer SNI — the fronted name is observable truth")
	}
	if _, _, ok := MatchProvider(rec.SNI); ok {
		t.Errorf("outer SNI %q matches a video provider — the ECH front leaks", rec.SNI)
	}
	if st := p.Stats(); st.Verdicts[VerdictAbstainedECH] != 1 {
		t.Errorf("Stats().Verdicts[abstained-ech] = %d, want 1", st.Verdicts[VerdictAbstainedECH])
	} else if st.EarlyClassified != 0 {
		t.Errorf("EarlyClassified = %d, want 0", st.EarlyClassified)
	}
}

// TestZeroRTTAbstainsWithoutHint pins the 0-RTT terminal verdict: no
// ClientHello ever crosses the tap, and the client's switch to short headers
// confirms none is coming — the flow must finalize as abstained-0rtt.
func TestZeroRTTAbstainsWithoutHint(t *testing.T) {
	ft := renderAdversarial(t, 13, "android_chrome", fingerprint.YouTube, fingerprint.QUIC, fingerprint.Options{ZeroRTT: true})
	p := New(emptyBank())
	feedTrace(p, ft)

	recs := p.Flows()
	if len(recs) != 1 {
		t.Fatalf("tracked %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Verdict != VerdictAbstainedZeroRTT {
		t.Fatalf("verdict = %s, want %s", rec.Verdict, VerdictAbstainedZeroRTT)
	}
	if rec.Transport != fingerprint.QUIC {
		t.Errorf("transport = %v, want QUIC", rec.Transport)
	}
	if rec.Prediction.Platform != "" || rec.SNI != "" {
		t.Errorf("0-RTT flow leaked classification state: platform=%q sni=%q", rec.Prediction.Platform, rec.SNI)
	}
	if got := p.Stats().Verdicts[VerdictAbstainedZeroRTT]; got != 1 {
		t.Errorf("Stats().Verdicts[abstained-0rtt] = %d, want 1", got)
	}
}

// TestZeroRTTAbstainsOnIdleEviction pins the eviction path for opaque flows:
// a 0-RTT flow whose short-header confirmation never arrives sits pending
// until idle eviction, which must still finalize it with the explicit
// abstained-0rtt verdict rather than a generic no-handshake.
func TestZeroRTTAbstainsOnIdleEviction(t *testing.T) {
	ft := renderAdversarial(t, 17, "android_chrome", fingerprint.YouTube, fingerprint.QUIC, fingerprint.Options{ZeroRTT: true})
	var evicted []*FlowRecord
	p := NewWithConfig(emptyBank(), Config{
		IdleTimeout: 30 * time.Second,
		OnEvict:     func(rec *FlowRecord, _ flowtable.Reason) { evicted = append(evicted, rec) },
	})
	// Feed only the two client 0-RTT packets — the confirmation never comes.
	for _, fr := range ft.Frames[:2] {
		p.HandlePacket(ft.Start.Add(fr.Offset), fr.Data)
	}
	// An unrelated flow far in the future sweeps the idle table.
	tcp, err := tracegen.New(18).Flow("windows_chrome", fingerprint.Netflix, fingerprint.TCP, tracegen.FlowSpec{})
	if err != nil {
		t.Fatal(err)
	}
	p.HandlePacket(ft.Start.Add(time.Hour), tcp.Frames[0].Data)

	if len(evicted) != 1 {
		t.Fatalf("evicted %d records, want 1", len(evicted))
	}
	if evicted[0].Verdict != VerdictAbstainedZeroRTT {
		t.Fatalf("evicted verdict = %s, want %s", evicted[0].Verdict, VerdictAbstainedZeroRTT)
	}
}

// TestECHDegradedGateRejects pins the negative gate: even with a trained
// bank and a correct provider hint, a margin bar the prediction cannot clear
// must leave the flow on the explicit abstain verdict. Deterministic: no
// platform margin reaches 2.0.
func TestECHDegradedGateRejects(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a bank")
	}
	bank, _ := trainSmallBank(t, 31, 0.02)
	ft := renderAdversarial(t, 19, "windows_chrome", fingerprint.Netflix, fingerprint.TCP, fingerprint.Options{ECH: true})
	p := NewWithConfig(bank, Config{
		ProviderHint:   tracegen.ProviderOfAddr,
		EarlyMinMargin: 2.0,
	})
	feedTrace(p, ft)

	recs := p.Flows()
	if len(recs) != 1 {
		t.Fatalf("tracked %d records, want 1", len(recs))
	}
	if recs[0].Verdict != VerdictAbstainedECH {
		t.Fatalf("verdict = %s, want %s (margin gate must reject)", recs[0].Verdict, VerdictAbstainedECH)
	}
	if got := p.Stats().EarlyClassified; got != 0 {
		t.Errorf("EarlyClassified = %d, want 0", got)
	}
}

// TestECHDegradedClassification pins the accept path: a trained bank, the
// synthetic IP-to-CDN hint and a zero margin bar. The outer hello is a full
// client fingerprint minus the SNI, so the flow either classifies (counted
// as early) or the confidence selector abstains — but the verdict must be
// one of the two explicit terminals and the counters must agree with it.
func TestECHDegradedClassification(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a bank")
	}
	bank, _ := trainSmallBank(t, 31, 0.02)
	ft := renderAdversarial(t, 23, "windows_chrome", fingerprint.Netflix, fingerprint.TCP, fingerprint.Options{ECH: true})
	p := NewWithConfig(bank, Config{
		ProviderHint:   tracegen.ProviderOfAddr,
		EarlyMinMargin: -1, // accept any margin: only the selector can abstain
	})
	feedTrace(p, ft)

	recs := p.Flows()
	if len(recs) != 1 {
		t.Fatalf("tracked %d records, want 1", len(recs))
	}
	rec, st := recs[0], p.Stats()
	switch rec.Verdict {
	case VerdictClassified:
		if rec.Prediction.Platform == "" || rec.Provider != fingerprint.Netflix {
			t.Errorf("classified record inconsistent: platform=%q provider=%v", rec.Prediction.Platform, rec.Provider)
		}
		if st.EarlyClassified != 1 || st.Verdicts[VerdictClassified] != 1 || st.Verdicts[VerdictAbstainedECH] != 0 {
			t.Errorf("counters = early %d / classified %d / abstained-ech %d, want 1/1/0",
				st.EarlyClassified, st.Verdicts[VerdictClassified], st.Verdicts[VerdictAbstainedECH])
		}
	case VerdictAbstainedECH:
		if rec.Prediction.Platform != "" {
			t.Errorf("abstained record carries a prediction for %q", rec.Prediction.Platform)
		}
		if st.EarlyClassified != 0 || st.Verdicts[VerdictAbstainedECH] != 1 {
			t.Errorf("counters = early %d / abstained-ech %d, want 0/1",
				st.EarlyClassified, st.Verdicts[VerdictAbstainedECH])
		}
	default:
		t.Fatalf("verdict = %s, want %s or %s", rec.Verdict, VerdictClassified, VerdictAbstainedECH)
	}
}

// TestZeroRTTDegradedEscalation pins degraded classification of opaque
// flows: with a hint available the pipeline classifies on the partial
// features the 0-RTT packets showed, once the short header proves no hello
// is coming, and the terminal decision is one of the two explicit outcomes
// with matching counters.
func TestZeroRTTDegradedEscalation(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a bank")
	}
	bank, _ := trainSmallBank(t, 31, 0.02)
	ft := renderAdversarial(t, 29, "android_chrome", fingerprint.YouTube, fingerprint.QUIC, fingerprint.Options{ZeroRTT: true})
	p := NewWithConfig(bank, Config{
		ProviderHint:   tracegen.ProviderOfAddr,
		EarlyMinMargin: -1,
	})
	feedTrace(p, ft)

	recs := p.Flows()
	if len(recs) != 1 {
		t.Fatalf("tracked %d records, want 1", len(recs))
	}
	rec, st := recs[0], p.Stats()
	switch rec.Verdict {
	case VerdictClassified:
		if rec.Provider != fingerprint.YouTube {
			t.Errorf("provider = %v, want YouTube (from the hint)", rec.Provider)
		}
		if st.EarlyClassified != 1 {
			t.Errorf("EarlyClassified = %d, want 1", st.EarlyClassified)
		}
	case VerdictAbstainedZeroRTT:
		if st.Verdicts[VerdictAbstainedZeroRTT] != 1 {
			t.Errorf("Stats().Verdicts[abstained-0rtt] = %d, want 1", st.Verdicts[VerdictAbstainedZeroRTT])
		}
	default:
		t.Fatalf("verdict = %s, want %s or %s", rec.Verdict, VerdictClassified, VerdictAbstainedZeroRTT)
	}
}

// TestMigrationClassifiedVerdict completes the scenario-verdict matrix: a
// migrated flow is not degraded — its hello crossed the tap — so with a
// trained bank it must finalize through the ordinary classification path
// with an explicit terminal verdict and no early-classification counting.
func TestMigrationClassifiedVerdict(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a bank")
	}
	bank, _ := trainSmallBank(t, 31, 0.02)
	p := New(bank)
	ft := renderScenarioFlow(t, 37, fingerprint.Options{Migration: true}, true)
	feedTrace(p, ft)

	recs := p.Flows()
	if len(recs) != 1 {
		t.Fatalf("tracked %d records, want 1", len(recs))
	}
	rec := recs[0]
	if rec.Verdict != VerdictClassified && rec.Verdict != VerdictAbstained {
		t.Fatalf("verdict = %s, want %s or %s", rec.Verdict, VerdictClassified, VerdictAbstained)
	}
	if rec.SNI != ft.SNI || rec.Provider != fingerprint.YouTube {
		t.Errorf("record identity = %q/%v, want %q/YouTube", rec.SNI, rec.Provider, ft.SNI)
	}
	if st := p.Stats(); st.EarlyClassified != 0 {
		t.Errorf("EarlyClassified = %d, want 0 — migration is not a degraded path", st.EarlyClassified)
	} else if n := p.TableStats().Rekeyed; n != 1 {
		t.Errorf("TableStats().Rekeyed = %d, want 1", n)
	}
}
