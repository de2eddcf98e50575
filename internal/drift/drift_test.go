package drift

import (
	"testing"

	"videoplat/internal/fingerprint"
	"videoplat/internal/pipeline"
)

func obs(prov fingerprint.Provider, conf float64, status pipeline.Status) *pipeline.FlowRecord {
	return &pipeline.FlowRecord{
		Classified: true, Provider: prov, Transport: fingerprint.TCP,
		Prediction: pipeline.Prediction{Status: status, PlatformConf: conf},
	}
}

func TestHealthyClassifierNotFlagged(t *testing.T) {
	m := NewMonitor(Config{Window: 50})
	for i := 0; i < 200; i++ {
		m.Observe(obs(fingerprint.Netflix, 0.95, pipeline.Composite))
	}
	sts := m.Statuses()
	if len(sts) != 1 {
		t.Fatalf("statuses = %d", len(sts))
	}
	if sts[0].Drifting {
		t.Errorf("healthy classifier flagged: %s", sts[0].Reason)
	}
	if len(m.NeedsRetraining()) != 0 {
		t.Error("retraining recommended for healthy classifier")
	}
}

func TestConfidenceDropFlagged(t *testing.T) {
	m := NewMonitor(Config{Window: 50, ConfidenceDrop: 0.1})
	for i := 0; i < 50; i++ {
		m.Observe(obs(fingerprint.YouTube, 0.95, pipeline.Composite))
	}
	// Traffic drifts: confidence decays.
	for i := 0; i < 60; i++ {
		m.Observe(obs(fingerprint.YouTube, 0.70, pipeline.Composite))
	}
	need := m.NeedsRetraining()
	if len(need) != 1 {
		t.Fatalf("retraining list = %v", need)
	}
	if need[0].RecentMedian > 0.75 || need[0].BaselineMedian < 0.9 {
		t.Errorf("medians = %+v", need[0])
	}
}

func TestUnknownRateFlagged(t *testing.T) {
	m := NewMonitor(Config{Window: 40, MaxUnknownRate: 0.3})
	for i := 0; i < 40; i++ {
		m.Observe(obs(fingerprint.Disney, 0.9, pipeline.Composite))
	}
	for i := 0; i < 40; i++ {
		st := pipeline.Composite
		conf := 0.9
		if i%2 == 0 { // 50% unknowns
			st = pipeline.Unknown
			conf = 0.85 // confidence itself stays high
		}
		m.Observe(obs(fingerprint.Disney, conf, st))
	}
	need := m.NeedsRetraining()
	if len(need) != 1 {
		t.Fatalf("unknown-rate drift not flagged: %+v", m.Statuses())
	}
	if need[0].UnknownRate < 0.3 {
		t.Errorf("unknown rate = %v", need[0].UnknownRate)
	}
}

func TestWarmup(t *testing.T) {
	m := NewMonitor(Config{Window: 100})
	for i := 0; i < 10; i++ {
		m.Observe(obs(fingerprint.Amazon, 0.5, pipeline.Unknown))
	}
	sts := m.Statuses()
	if sts[0].Drifting || sts[0].Reason != "warming up" {
		t.Errorf("warming-up classifier misjudged: %+v", sts[0])
	}
}

func TestUnclassifiedIgnored(t *testing.T) {
	m := NewMonitor(Config{})
	m.Observe(&pipeline.FlowRecord{Classified: false})
	if len(m.Statuses()) != 0 {
		t.Error("unclassified record created a series")
	}
}

func TestSubscribeFiresOnceOnDriftTransition(t *testing.T) {
	m := NewMonitor(Config{Window: 50, ConfidenceDrop: 0.1})
	var fired []Status
	m.Subscribe(func(st Status) { fired = append(fired, st) })

	for i := 0; i < 50; i++ {
		m.Observe(obs(fingerprint.YouTube, 0.95, pipeline.Composite))
	}
	if len(fired) != 0 {
		t.Fatalf("subscriber fired during healthy baseline: %+v", fired)
	}
	// Decay well past the eval period: exactly one notification.
	for i := 0; i < 200; i++ {
		m.Observe(obs(fingerprint.YouTube, 0.60, pipeline.Composite))
	}
	if len(fired) != 1 {
		t.Fatalf("subscriber fired %d times, want 1", len(fired))
	}
	if !fired[0].Drifting || fired[0].Provider != fingerprint.YouTube {
		t.Errorf("notification = %+v", fired[0])
	}
}

func TestRebaselineResetsReferenceAndRearmsSubscribers(t *testing.T) {
	m := NewMonitor(Config{Window: 50, ConfidenceDrop: 0.1})
	fired := 0
	m.Subscribe(func(Status) { fired++ })

	for i := 0; i < 50; i++ {
		m.Observe(obs(fingerprint.Netflix, 0.95, pipeline.Composite))
	}
	for i := 0; i < 100; i++ {
		m.Observe(obs(fingerprint.Netflix, 0.60, pipeline.Composite))
	}
	if fired != 1 {
		t.Fatalf("fired = %d before rebaseline, want 1", fired)
	}

	// The bank was swapped: the new model's steady 0.60 confidence is its
	// own baseline, not a drop from the old model's 0.95.
	m.Rebaseline()
	if len(m.Statuses()) != 0 {
		t.Fatal("rebaseline kept old series")
	}
	for i := 0; i < 200; i++ {
		m.Observe(obs(fingerprint.Netflix, 0.60, pipeline.Composite))
	}
	for _, st := range m.Statuses() {
		if st.Drifting {
			t.Errorf("new model judged against old baseline: %+v", st)
		}
	}
	if fired != 1 {
		t.Fatalf("fired = %d after rebaseline on steady traffic, want still 1", fired)
	}

	// But a genuine new drop after the swap is detected and re-notified.
	for i := 0; i < 200; i++ {
		m.Observe(obs(fingerprint.Netflix, 0.30, pipeline.Composite))
	}
	if fired != 2 {
		t.Fatalf("fired = %d after post-swap drift, want 2", fired)
	}
}

func TestEndToEndWithOpenSetDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a bank")
	}
	// Train on lab traffic, then feed open-set (drifted) flows: the monitor
	// should see lower confidence than the closed-set baseline.
	g := newGen(t)
	bank := g.bank
	m := NewMonitor(Config{Window: 60, ConfidenceDrop: 0.03})

	feed := func(ds dataset) {
		for _, ft := range ds.flows {
			info, err := pipeline.ExtractTrace(ft)
			if err != nil {
				t.Fatal(err)
			}
			pred, err := bank.ClassifyHandshake(ft.Provider, ft.Transport, info, nil)
			if err != nil {
				t.Fatal(err)
			}
			m.Observe(&pipeline.FlowRecord{Classified: true, Provider: ft.Provider,
				Transport: ft.Transport, Prediction: pred})
		}
	}
	feed(g.closed)
	closedSts := m.Statuses()
	feed(g.open)
	openSts := m.Statuses()

	var closedMed, openMed float64
	for _, st := range closedSts {
		closedMed += st.RecentMedian
	}
	closedMed /= float64(len(closedSts))
	for _, st := range openSts {
		openMed += st.RecentMedian
	}
	openMed /= float64(len(openSts))
	if openMed > closedMed {
		t.Errorf("drifted traffic should not raise confidence: closed %.3f open %.3f",
			closedMed, openMed)
	}
}
