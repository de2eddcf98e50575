package telemetry

import (
	"math"
	"testing"
	"time"

	"videoplat/internal/fingerprint"
	"videoplat/internal/pipeline"
)

func rec(prov fingerprint.Provider, device, agent string, start time.Time,
	dur time.Duration, mbps float64, status pipeline.Status) *pipeline.FlowRecord {
	bytes := int64(mbps * 1e6 / 8 * dur.Seconds())
	pred := pipeline.Prediction{Status: status, Device: device, Agent: agent,
		Platform: device + "_" + agent}
	return &pipeline.FlowRecord{
		Provider: prov, Content: true, Verdict: pred.Verdict(), Prediction: pred,
		FirstSeen: start, LastSeen: start.Add(dur), BytesDown: bytes,
	}
}

var t0 = time.Date(2023, 7, 7, 20, 0, 0, 0, time.UTC)

func TestBoxStats(t *testing.T) {
	b := NewBoxStats([]float64{1, 2, 3, 4, 5})
	if b.Median != 3 || b.Min != 1 || b.Max != 5 {
		t.Errorf("box = %+v", b)
	}
	if b.Q1 != 2 || b.Q3 != 4 {
		t.Errorf("quartiles = %v/%v", b.Q1, b.Q3)
	}
	if z := NewBoxStats(nil); z.N != 0 || z.Median != 0 {
		t.Errorf("empty box = %+v", z)
	}
	one := NewBoxStats([]float64{7})
	if one.Median != 7 || one.Q1 != 7 || one.Q3 != 7 {
		t.Errorf("single box = %+v", one)
	}
}

func TestWatchTimeAggregation(t *testing.T) {
	a := &Aggregator{Days: 2}
	a.Add(rec(fingerprint.YouTube, "windows", "chrome", t0, 2*time.Hour, 3, pipeline.Composite))
	a.Add(rec(fingerprint.YouTube, "windows", "chrome", t0, 2*time.Hour, 3, pipeline.Composite))
	a.Add(rec(fingerprint.YouTube, "iOS", "nativeApp", t0, 1*time.Hour, 2, pipeline.Composite))
	// Low-confidence and management flows must not count.
	a.Add(rec(fingerprint.YouTube, "windows", "chrome", t0, 10*time.Hour, 3, pipeline.Unknown))
	mgmt := rec(fingerprint.YouTube, "windows", "chrome", t0, 10*time.Hour, 3, pipeline.Composite)
	mgmt.Content = false
	a.Add(mgmt)

	wt := a.WatchTimeByDevice()
	if got := wt[fingerprint.YouTube]["windows"]; math.Abs(got-2) > 1e-9 {
		t.Errorf("windows hours/day = %v, want 2", got)
	}
	if got := wt[fingerprint.YouTube]["iOS"]; math.Abs(got-0.5) > 1e-9 {
		t.Errorf("iOS hours/day = %v, want 0.5", got)
	}
	byAgent := a.WatchTimeByAgent()
	if got := byAgent[fingerprint.YouTube]["windows"]["chrome"]; math.Abs(got-2) > 1e-9 {
		t.Errorf("windows/chrome = %v", got)
	}
}

func TestBandwidthAggregation(t *testing.T) {
	a := &Aggregator{Days: 1}
	for _, mbps := range []float64{2, 4, 6} {
		a.Add(rec(fingerprint.Amazon, "macOS", "safari", t0, time.Hour, mbps, pipeline.Composite))
	}
	bw := a.BandwidthByDevice()
	box := bw[fingerprint.Amazon]["macOS"]
	if box.N != 3 || math.Abs(box.Median-4) > 0.01 {
		t.Errorf("box = %+v", box)
	}
	byAgent := a.BandwidthByAgent()
	if byAgent[fingerprint.Amazon]["macOS"]["safari"].N != 3 {
		t.Error("agent-level box missing")
	}
}

func TestHourlyUsage(t *testing.T) {
	a := &Aggregator{Days: 2}
	// Two days with PC traffic at 20:00 and mobile at 21:00.
	for day := 0; day < 2; day++ {
		base := t0.Add(time.Duration(day) * 24 * time.Hour)
		a.Add(rec(fingerprint.Netflix, "windows", "chrome", base, time.Hour, 8, pipeline.Composite))
		a.Add(rec(fingerprint.Netflix, "iOS", "nativeApp", base.Add(time.Hour), time.Hour, 4, pipeline.Composite))
		// TV traffic is in neither class.
		a.Add(rec(fingerprint.Netflix, "TV", "nativeApp", base, time.Hour, 9, pipeline.Composite))
	}
	pc, mobile := a.HourlyUsage(fingerprint.Netflix)
	if pc[20] <= 0 {
		t.Errorf("pc[20] = %v", pc[20])
	}
	if mobile[21] <= 0 {
		t.Errorf("mobile[21] = %v", mobile[21])
	}
	if pc[3] != 0 || mobile[3] != 0 {
		t.Error("usage at 3am should be zero")
	}
	// 8 Mbps for 1h = 3.6 GB
	if math.Abs(pc[20]-3.6) > 0.1 {
		t.Errorf("pc[20] = %v GB, want ~3.6", pc[20])
	}
}

func TestExcludedFraction(t *testing.T) {
	a := &Aggregator{}
	a.Add(rec(fingerprint.YouTube, "windows", "chrome", t0, time.Hour, 3, pipeline.Composite))
	a.Add(rec(fingerprint.YouTube, "windows", "chrome", t0, time.Hour, 3, pipeline.Partial))
	a.Add(rec(fingerprint.YouTube, "windows", "chrome", t0, time.Hour, 3, pipeline.Unknown))
	a.Add(rec(fingerprint.YouTube, "windows", "chrome", t0, time.Hour, 3, pipeline.Composite))
	if f := a.ExcludedFraction(); math.Abs(f-0.5) > 1e-9 {
		t.Errorf("excluded = %v", f)
	}
}
