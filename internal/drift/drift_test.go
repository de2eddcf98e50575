package drift

import (
	"testing"

	"videoplat/internal/fingerprint"
	"videoplat/internal/pipeline"
)

func obs(prov fingerprint.Provider, conf float64, status pipeline.Status) *pipeline.FlowRecord {
	pred := pipeline.Prediction{Status: status, PlatformConf: conf}
	return &pipeline.FlowRecord{
		Verdict: pred.Verdict(), Provider: prov, Transport: fingerprint.TCP,
		Prediction: pred,
	}
}

// flagged lists the classifiers the monitor currently flags.
func flagged(m *Monitor) []Status {
	var out []Status
	for _, st := range m.Statuses() {
		if st.Drifting {
			out = append(out, st)
		}
	}
	return out
}

// of is the status of version's series, or nil.
func of(sts []Status, version string) *Status {
	for i := range sts {
		if sts[i].Version == version {
			return &sts[i]
		}
	}
	return nil
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
	if len(flagged(m)) != 0 {
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
	need := flagged(m)
	if len(need) != 1 {
		t.Fatalf("retraining list = %v", need)
	}
	if need[0].RecentMedian > 0.75 || need[0].BaselineMedian < 0.9 {
		t.Errorf("medians = %+v", need[0])
	}
}

func TestUnknownRateFlagged(t *testing.T) {
	m := NewMonitor(Config{Window: 40})
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
	need := flagged(m)
	if len(need) != 1 {
		t.Fatalf("unknown-rate drift not flagged: %+v", m.Statuses())
	}
	if need[0].UnknownRate <= maxUnknownRate {
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
	m.Observe(&pipeline.FlowRecord{Verdict: pipeline.VerdictNoHandshake})
	if len(m.Statuses()) != 0 {
		t.Error("unclassified record created a series")
	}
}

func TestRebaselineResetsReference(t *testing.T) {
	m := NewMonitor(Config{Window: 50, ConfidenceDrop: 0.1})
	for i := 0; i < 50; i++ {
		m.Observe(obs(fingerprint.Netflix, 0.95, pipeline.Composite))
	}
	for i := 0; i < 100; i++ {
		m.Observe(obs(fingerprint.Netflix, 0.60, pipeline.Composite))
	}
	if len(flagged(m)) != 1 {
		t.Fatalf("drop not flagged before rebaseline: %+v", m.Statuses())
	}

	// The bank was swapped: the new model's steady 0.60 confidence is its
	// own baseline, not a drop from the old model's 0.95. Its first flow
	// restarts the series.
	swapped := func(conf float64) *pipeline.FlowRecord {
		rec := obs(fingerprint.Netflix, conf, pipeline.Composite)
		rec.ModelVersion = "v0002"
		return rec
	}
	m.Observe(swapped(0.60))
	if st := of(m.Statuses(), "v0002"); st == nil || st.Observations != 1 {
		t.Fatal("the new version's series did not start afresh")
	}
	for i := 1; i < 200; i++ {
		m.Observe(swapped(0.60))
	}
	if st := of(m.Statuses(), "v0002"); st.Drifting {
		t.Errorf("new model judged against old baseline: %+v", st)
	}

	// But a genuine new drop after the swap is detected.
	for i := 0; i < 200; i++ {
		m.Observe(swapped(0.30))
	}
	if st := of(m.Statuses(), "v0002"); !st.Drifting {
		t.Fatalf("post-swap drop not flagged: %+v", st)
	}
}

// TestStatusNamesJudgedVersion: each verdict names the bank version its
// series judges, and a record from another version starts that version's
// own series beside it.
func TestStatusNamesJudgedVersion(t *testing.T) {
	m := NewMonitor(Config{Window: 10})
	rec := obs(fingerprint.YouTube, 0.9, pipeline.Composite)
	rec.ModelVersion = "v0001"
	for i := 0; i < 20; i++ {
		m.Observe(rec)
	}
	if sts := m.Statuses(); len(sts) != 1 || sts[0].Version != "v0001" || sts[0].Observations != 20 {
		t.Fatalf("statuses = %+v", sts)
	}
	rec.ModelVersion = "v0002"
	m.Observe(rec)
	if sts := m.Statuses(); len(sts) != 2 || sts[0].Version != "v0001" || sts[0].Observations != 20 ||
		sts[1].Version != "v0002" || sts[1].Observations != 1 {
		t.Fatalf("statuses after a version change = %+v", sts)
	}
}

// TestStragglerKeepsServingSeries: a record the replaced bank classified,
// arriving after the swap, leaves the serving version's series as it was.
func TestStragglerKeepsServingSeries(t *testing.T) {
	m := NewMonitor(Config{Window: 10})
	rec := obs(fingerprint.YouTube, 0.9, pipeline.Composite)
	version := func(v string) *pipeline.FlowRecord { rec.ModelVersion = v; return rec }
	for i := 0; i < 20; i++ {
		m.Observe(version("v2"))
	}
	m.Observe(version("v1"))
	m.Observe(version("v2"))
	sts := m.Statuses()
	if st := of(sts, "v2"); st == nil || st.Observations != 21 || st.Reason != "healthy" {
		t.Fatalf("v2 series after a v1 straggler = %+v", st)
	}
	if st := of(sts, "v1"); st == nil || st.Observations != 1 {
		t.Fatalf("v1 series = %+v", st)
	}
}

// TestAlternatingSwapsKeepTwoSeries: promotes and rollbacks back and forth
// keep at most maxVersions series per classifier, each continuing its own
// history, and a third version drops the least recently observed.
func TestAlternatingSwapsKeepTwoSeries(t *testing.T) {
	m := NewMonitor(Config{Window: 10})
	yt := obs(fingerprint.YouTube, 0.9, pipeline.Composite)
	nf := obs(fingerprint.Netflix, 0.9, pipeline.Composite)
	for i := 0; i < 10; i++ {
		v := []string{"v1", "v2"}[i%2]
		yt.ModelVersion, nf.ModelVersion = v, v
		for j := 0; j < 3; j++ {
			m.Observe(yt)
			m.Observe(nf)
		}
	}
	sts := m.Statuses()
	if len(sts) != 2*maxVersions {
		t.Fatalf("%d series for two classifiers: %+v", len(sts), sts)
	}
	for _, st := range sts {
		if st.Observations != 15 {
			t.Errorf("%s %s series has %d observations, want 15", st.Provider, st.Version, st.Observations)
		}
	}
	yt.ModelVersion = "v1"
	m.Observe(yt) // v1 is the most recent again, so v2 goes next
	yt.ModelVersion = "v3"
	m.Observe(yt)
	var got []string
	for _, st := range m.Statuses() {
		if st.Provider == fingerprint.YouTube {
			got = append(got, st.Version)
		}
	}
	if len(got) != 2 || got[0] != "v1" || got[1] != "v3" {
		t.Errorf("YouTube series after a third version = %v, want [v1 v3]", got)
	}
}

// TestObserveAllocFree: recording a flow into a warm series allocates
// nothing — Observe computes no verdict.
func TestObserveAllocFree(t *testing.T) {
	m := NewMonitor(Config{Window: 50})
	rec := obs(fingerprint.Disney, 0.8, pipeline.Composite)
	for i := 0; i < 100; i++ {
		m.Observe(rec)
	}
	if n := testing.AllocsPerRun(1000, func() { m.Observe(rec) }); n != 0 {
		t.Errorf("Observe allocates %v per flow on a warm series", n)
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
			m.Observe(&pipeline.FlowRecord{Verdict: pred.Verdict(), Provider: ft.Provider,
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
