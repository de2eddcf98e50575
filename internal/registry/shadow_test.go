package registry

import (
	"testing"

	"videoplat/internal/fingerprint"
	"videoplat/internal/ml"
	"videoplat/internal/tracegen"
)

func TestShadowGateRejectsBadCandidate(t *testing.T) {
	if testing.Short() {
		t.Skip("trains banks")
	}
	active := trainBank(t, 1, ml.ForestConfig{})
	// Deliberately bad candidate: depth-1 stumps scatter their votes, so
	// platform confidence collapses.
	bad := trainBank(t, 2, ml.ForestConfig{NumTrees: 12, MaxDepth: 1, MaxFeatures: 34, Seed: 2})

	live, err := tracegen.New(5).LabDataset(0.03, fingerprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs, vals := classifyAll(t, active, live)
	if len(recs) < 60 {
		t.Fatalf("only %d live flows", len(recs))
	}

	sh := NewShadow(bad, Gate{SampleRate: 1, MinFlows: 50})
	for i := range recs {
		sh.Observe(recs[i], vals[i])
	}
	m, ok := sh.Verdict()
	if !ok {
		t.Fatalf("verdict not ready after %d flows", len(recs))
	}
	if m.Promoted {
		t.Fatalf("bad candidate cleared the gate: %+v", m)
	}
	if m.CandidateMeanConf >= m.ActiveMeanConf {
		t.Errorf("test premise broken: bad candidate conf %.2f >= active %.2f",
			m.CandidateMeanConf, m.ActiveMeanConf)
	}
}

func TestShadowGateAcceptsEquivalentCandidate(t *testing.T) {
	if testing.Short() {
		t.Skip("trains banks")
	}
	active := trainBank(t, 1, ml.ForestConfig{})
	// A retrain of the same quality on fresh data should pass.
	cand := trainBank(t, 7, ml.ForestConfig{})

	live, err := tracegen.New(5).LabDataset(0.03, fingerprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs, vals := classifyAll(t, active, live)

	sh := NewShadow(cand, Gate{SampleRate: 1, MinFlows: 50})
	ready := false
	for i := range recs {
		_, _, ready = sh.Observe(recs[i], vals[i])
	}
	if !ready {
		t.Fatalf("shadow not ready after %d flows", len(recs))
	}
	m, ok := sh.Verdict()
	if !ok || !m.Promoted {
		t.Fatalf("equivalent candidate rejected: %+v", m)
	}
	if m.AgreementFlows == 0 {
		t.Error("no flows had both banks confident; agreement gate untested")
	}
}

func TestShadowSampling(t *testing.T) {
	if testing.Short() {
		t.Skip("trains banks")
	}
	active := trainBank(t, 1, ml.ForestConfig{})
	cand := trainBank(t, 7, ml.ForestConfig{})
	live, err := tracegen.New(5).LabDataset(0.03, fingerprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs, vals := classifyAll(t, active, live)

	sh := NewShadow(cand, Gate{SampleRate: 0.25, MinFlows: 10})
	for i := range recs {
		sh.Observe(recs[i], vals[i])
	}
	m, _ := sh.Verdict()
	want := len(recs) / 4
	if m.Flows != want {
		t.Errorf("sampled %d of %d flows, want %d", m.Flows, len(recs), want)
	}
}
