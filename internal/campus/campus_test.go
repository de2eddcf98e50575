package campus

import (
	"math"
	"testing"
	"time"

	"videoplat/internal/fingerprint"
	"videoplat/internal/ml"
	"videoplat/internal/pipeline"
	"videoplat/internal/tracegen"
)

func trainBank(t testing.TB) *pipeline.Bank {
	t.Helper()
	g := tracegen.New(11)
	ds, err := g.LabDataset(0.05, fingerprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bank, err := pipeline.TrainBank(ds, pipeline.TrainConfig{Forest: ml.ForestConfig{
		NumTrees: 15, MaxDepth: 20, MaxFeatures: 34, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	return bank
}

func TestSimulateProducesCalibratedShape(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation is slow")
	}
	bank := trainBank(t)
	res, err := Simulate(Config{Seed: 1, Days: 3, SessionsPerDay: 600}, bank)
	if err != nil {
		t.Fatal(err)
	}
	if res.Flows < 1000 {
		t.Fatalf("flows = %d", res.Flows)
	}

	wt := res.WatchTimeByDevice()
	// YouTube must dominate total watch time (Fig 7).
	totals := map[fingerprint.Provider]float64{}
	for prov, byDev := range wt {
		for _, h := range byDev {
			totals[prov] += h
		}
	}
	if totals[fingerprint.YouTube] <= totals[fingerprint.Netflix] {
		t.Errorf("YouTube hours (%v) not dominant over Netflix (%v)",
			totals[fingerprint.YouTube], totals[fingerprint.Netflix])
	}
	// Subscription providers: PC > mobile; YouTube mobile share is large.
	nf := wt[fingerprint.Netflix]
	if nf["windows"]+nf["macOS"] <= nf["android"]+nf["iOS"] {
		t.Error("Netflix should be PC-dominant")
	}
	yt := wt[fingerprint.YouTube]
	mobileShare := (yt["android"] + yt["iOS"]) / totals[fingerprint.YouTube]
	if mobileShare < 0.25 {
		t.Errorf("YouTube mobile share = %.2f, want >= 0.25 (paper: up to 40%%)", mobileShare)
	}

	// Amazon on macOS must show the highest median bandwidth (Fig 9).
	bw := res.BandwidthByDevice()
	apMac := bw[fingerprint.Amazon]["macOS"].Median
	if apMac < 4 {
		t.Errorf("Amazon/macOS median = %.2f Mbps, want > 4", apMac)
	}
	apTV := bw[fingerprint.Amazon]["TV"].Median
	if apMac <= apTV {
		t.Errorf("Amazon mac (%v) should exceed TV (%v) (the paper's 50%% gap)", apMac, apTV)
	}

	// Evening peak (Fig 11): Netflix PC usage at 21h exceeds 10h.
	pc, _ := res.HourlyUsage(fingerprint.Netflix)
	if pc[21] <= pc[10] {
		t.Errorf("Netflix pc usage 21h (%v) not above 10h (%v)", pc[21], pc[10])
	}

	// Classification exclusions stay moderate.
	if f := res.ExcludedFraction(); f > 0.5 {
		t.Errorf("excluded fraction = %.2f", f)
	}
}

func TestHourWeightShapes(t *testing.T) {
	// Netflix evening peak is sharper than YouTube's plateau.
	if hourWeight(fingerprint.Netflix, 21) != 1.0 {
		t.Error("netflix 21h should be peak")
	}
	if hourWeight(fingerprint.YouTube, 17) != 1.0 || hourWeight(fingerprint.YouTube, 23) != 1.0 {
		t.Error("youtube 16-24h should be plateau")
	}
	if hourWeight(fingerprint.Netflix, 17) >= 1.0 {
		t.Error("netflix 17h should be below peak")
	}
	if hourWeight(fingerprint.Amazon, 4) >= 0.3 {
		t.Error("amazon 4am should be low")
	}
}

func TestPlatformWeightsAreSupported(t *testing.T) {
	for prov, weights := range platformWeights {
		for label := range weights {
			if !fingerprint.SupportMatrix(label, prov) {
				t.Errorf("campus weight for unsupported combo %s/%s", label, prov)
			}
		}
	}
}

// session folds one session into r: dur at mbps, started in hour of day.
func session(r *Result, prov fingerprint.Provider, device, agent string, status pipeline.Status,
	day, hour int, dur time.Duration, mbps float64) {
	pred := pipeline.Prediction{Status: status, Device: device, Agent: agent, Platform: device + "_" + agent}
	r.add(prov, pred, day, hour, dur, int64(mbps*1e6/8*dur.Seconds()))
}

func TestBoxStats(t *testing.T) {
	b := newBoxStats([]float64{1, 2, 3, 4, 5})
	if b.Median != 3 || b.Min != 1 || b.Max != 5 {
		t.Errorf("box = %+v", b)
	}
	if b.Q1 != 2 || b.Q3 != 4 {
		t.Errorf("quartiles = %v/%v", b.Q1, b.Q3)
	}
	if z := newBoxStats(nil); z.N != 0 || z.Median != 0 {
		t.Errorf("empty box = %+v", z)
	}
	one := newBoxStats([]float64{7})
	if one.Median != 7 || one.Q1 != 7 || one.Q3 != 7 {
		t.Errorf("single box = %+v", one)
	}
}

func TestWatchTimeAggregation(t *testing.T) {
	r := newResult(2)
	session(r, fingerprint.YouTube, "windows", "chrome", pipeline.Composite, 0, 20, 2*time.Hour, 3)
	session(r, fingerprint.YouTube, "windows", "chrome", pipeline.Composite, 0, 20, 2*time.Hour, 3)
	session(r, fingerprint.YouTube, "iOS", "nativeApp", pipeline.Composite, 0, 20, time.Hour, 2)
	// A low-confidence flow must not count.
	session(r, fingerprint.YouTube, "windows", "chrome", pipeline.Unknown, 0, 20, 10*time.Hour, 3)

	wt := r.WatchTimeByDevice()
	if got := wt[fingerprint.YouTube]["windows"]; got != 2 {
		t.Errorf("windows hours/day = %v, want 2", got)
	}
	if got := wt[fingerprint.YouTube]["iOS"]; got != 0.5 {
		t.Errorf("iOS hours/day = %v, want 0.5", got)
	}
	byAgent := r.WatchTimeByAgent()
	if got := byAgent[fingerprint.YouTube]["windows"]["chrome"]; got != 2 {
		t.Errorf("windows/chrome = %v", got)
	}
}

func TestBandwidthAggregation(t *testing.T) {
	r := newResult(1)
	for _, mbps := range []float64{6, 2, 4} {
		session(r, fingerprint.Amazon, "macOS", "safari", pipeline.Composite, 0, 20, time.Hour, mbps)
	}
	session(r, fingerprint.Amazon, "macOS", "chrome", pipeline.Composite, 0, 20, time.Hour, 8)
	box := r.BandwidthByDevice()[fingerprint.Amazon]["macOS"]
	if box.N != 4 || math.Abs(box.Median-5) > 0.01 {
		t.Errorf("device box = %+v", box)
	}
	byAgent := r.BandwidthByAgent()[fingerprint.Amazon]["macOS"]
	if safari := byAgent["safari"]; safari.N != 3 || math.Abs(safari.Median-4) > 0.01 {
		t.Errorf("safari box = %+v", safari)
	}
}

func TestHourlyUsage(t *testing.T) {
	r := newResult(2)
	// Two days with PC traffic at 20:00 and mobile at 21:00.
	for day := 0; day < 2; day++ {
		session(r, fingerprint.Netflix, "windows", "chrome", pipeline.Composite, day, 20, time.Hour, 8)
		session(r, fingerprint.Netflix, "iOS", "nativeApp", pipeline.Composite, day, 21, time.Hour, 4)
		// TV traffic is in neither class.
		session(r, fingerprint.Netflix, "TV", "nativeApp", pipeline.Composite, day, 20, time.Hour, 9)
	}
	pc, mobile := r.HourlyUsage(fingerprint.Netflix)
	// 8 Mbps for 1h = 3.6 GB
	if math.Abs(pc[20]-3.6) > 0.1 {
		t.Errorf("pc[20] = %v GB, want ~3.6", pc[20])
	}
	if math.Abs(mobile[21]-1.8) > 0.1 {
		t.Errorf("mobile[21] = %v GB, want ~1.8", mobile[21])
	}
	if pc[3] != 0 || mobile[3] != 0 || pc[21] != 0 {
		t.Error("usage outside the sessions' hours should be zero")
	}
}

func TestExcludedFraction(t *testing.T) {
	r := newResult(1)
	for _, st := range []pipeline.Status{pipeline.Composite, pipeline.Partial, pipeline.Unknown, pipeline.Composite} {
		session(r, fingerprint.YouTube, "windows", "chrome", st, 0, 20, time.Hour, 3)
	}
	if f := r.ExcludedFraction(); f != 0.5 {
		t.Errorf("excluded = %v", f)
	}
}
