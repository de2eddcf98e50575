package pipeline

import (
	"testing"

	"videoplat/internal/features"
	"videoplat/internal/fingerprint"
	"videoplat/internal/tracegen"
)

// scenarioEvalFlows renders the adversarial scenario families that still
// yield a parseable handshake: ECH hellos over both transports, mid-stream
// migration, and mid-handshake migration (the ClientHello split across two
// Initials, reassembled by the CRYPTO-offset path). 0-RTT flows have no
// hello at all and are covered by the partial-info sweep below.
func scenarioEvalFlows(t testing.TB) []*tracegen.FlowTrace {
	t.Helper()
	g := tracegen.New(1234)
	var out []*tracegen.FlowTrace
	add := func(label string, prov fingerprint.Provider, tr fingerprint.Transport, spec tracegen.FlowSpec) {
		ft, err := g.Flow(label, prov, tr, spec)
		if err != nil {
			t.Fatalf("rendering %s/%s: %v", label, prov, err)
		}
		out = append(out, ft)
	}
	for _, prov := range fingerprint.AllProviders() {
		add("windows_chrome", prov, fingerprint.TCP,
			tracegen.FlowSpec{Options: fingerprint.Options{ECH: true}, PayloadFrames: 1})
	}
	// QUIC carries video for YouTube only (Fig 12a), so the QUIC scenarios
	// sweep platforms instead of providers.
	for _, label := range []string{"android_chrome", "iOS_chrome", "windows_chrome"} {
		add(label, fingerprint.YouTube, fingerprint.QUIC,
			tracegen.FlowSpec{Options: fingerprint.Options{ECH: true}, PayloadFrames: 1})
		add(label, fingerprint.YouTube, fingerprint.QUIC,
			tracegen.FlowSpec{Options: fingerprint.Options{Migration: true}, PayloadFrames: 2})
		add(label, fingerprint.YouTube, fingerprint.QUIC,
			tracegen.FlowSpec{Options: fingerprint.Options{Migration: true}, MigrateMidHandshake: true, PayloadFrames: 2})
	}
	add("macOS_chrome", fingerprint.YouTube, fingerprint.QUIC,
		tracegen.FlowSpec{Options: fingerprint.Options{ECH: true, Migration: true}, PayloadFrames: 1})
	return out
}

// TestScenarioGoldenEquivalence extends the compiled-vs-reference golden
// sweep (encoders, forests, batch path) to the adversarial scenario
// families: the serving fast path must stay element-identical to the
// reference encode+classify on ECH and migrated flows, including hellos
// reassembled from split CRYPTO.
func TestScenarioGoldenEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a bank")
	}
	bank := goldenBank(t)
	flows := scenarioEvalFlows(t)
	for _, ft := range flows {
		if info, err := ExtractTrace(ft); err != nil {
			t.Fatalf("%s/%s did not yield a handshake: %v", ft.Label, ft.Provider, err)
		} else if info.Hello == nil {
			t.Fatalf("%s/%s extracted without a hello", ft.Label, ft.Provider)
		}
	}
	checkBankEquivalence(t, bank, flows, "scenario")
}

// TestPartialInfoGoldenEquivalence pins the degraded-classification input:
// a 0-RTT flow yields a HandshakeInfo with no ClientHello at all, and the
// compiled encoder must agree with the reference Transform on that partial
// evidence for every provider and objective — the prediction the ECH/0-RTT
// margin gate judges.
func TestPartialInfoGoldenEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a bank")
	}
	bank := goldenBank(t)
	partials := []*features.HandshakeInfo{
		{QUIC: true, TTL: 52, InitPacketSize: 1252},
		{QUIC: true, TTL: 61, InitPacketSize: 1357},
		{TCPFlags: 0x02, TCPWindow: 64240, TCPMSS: 1460, TCPWScale: 8, TCPSACK: true, TTL: 118},
	}
	var sc ClassifyScratch
	for _, prov := range fingerprint.AllProviders() {
		for _, info := range partials {
			tr := fingerprint.TCP
			if info.QUIC {
				if prov != fingerprint.YouTube {
					continue // only YouTube serves video over QUIC
				}
				tr = fingerprint.QUIC
			}
			v := features.Extract(info)
			ref, err := bank.Classify(prov, tr, v)
			if err != nil {
				t.Fatal(err)
			}
			fast, err := bank.ClassifyHandshake(prov, tr, info, &sc)
			if err != nil {
				t.Fatal(err)
			}
			if fast != ref {
				t.Fatalf("%s/%s: partial-info predictions diverge:\nfast: %+v\nref:  %+v", prov, tr, fast, ref)
			}
		}
	}
}
