package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"
	"time"

	"videoplat/internal/fingerprint"
	"videoplat/internal/pipeline"
)

func rollRec(prov fingerprint.Provider, platform string, start time.Time, dur time.Duration, bytesDown int64) *pipeline.FlowRecord {
	r := &pipeline.FlowRecord{
		Provider:  prov,
		FirstSeen: start,
		LastSeen:  start.Add(dur),
		BytesDown: bytesDown,
	}
	if platform != "" {
		r.Verdict = pipeline.VerdictClassified
		r.Content = true
		r.Prediction = pipeline.Prediction{Status: pipeline.Composite, Platform: platform}
	}
	return r
}

var w0 = time.Date(2023, 7, 7, 12, 0, 0, 0, time.UTC)

func TestRollupTumblingWindows(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	r := NewRollup(time.Minute, sink)

	// Two flows finalize in the 12:00 window, one in 12:02.
	r.Add(rollRec(fingerprint.YouTube, "windows_chrome", w0, 10*time.Second, 10<<20))
	r.Add(rollRec(fingerprint.Netflix, "", w0.Add(5*time.Second), 20*time.Second, 5<<20))
	if got := r.Sealed(); got != 0 {
		t.Fatalf("sealed = %d before boundary", got)
	}
	cur := r.Current()
	if cur == nil || cur.Flows != 2 || cur.ClassifiedFlows != 1 {
		t.Fatalf("current window = %+v", cur)
	}
	if cur.ClassificationRate != 0.5 {
		t.Errorf("live classification rate = %v, want 0.5", cur.ClassificationRate)
	}

	r.Add(rollRec(fingerprint.YouTube, "iOS_nativeApp", w0.Add(2*time.Minute), 15*time.Second, 1<<20))
	if got := r.Sealed(); got != 0 {
		t.Fatalf("sealed = %d when a record crossed the boundary, want 0: records never seal", got)
	}
	r.Advance(w0.Add(time.Minute - time.Nanosecond))
	if got := r.Sealed(); got != 0 {
		t.Fatalf("sealed = %d with the watermark short of the end, want 0", got)
	}
	r.Advance(w0.Add(time.Minute + 30*time.Second))
	if got := r.Sealed(); got != 1 {
		t.Fatalf("sealed = %d with the watermark past the end, want 1", got)
	}
	r.Advance(w0) // behind the last watermark: changes nothing
	r.Flush()
	if got, want := r.Sealed(), 2; got != want {
		t.Fatalf("sealed = %d after flush, want %d", got, want)
	}
	if sink.Windows() != 2 {
		t.Fatalf("sink windows = %d", sink.Windows())
	}

	var wins []Window
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var w Window
		if err := json.Unmarshal(sc.Bytes(), &w); err != nil {
			t.Fatalf("bad JSONL line: %v", err)
		}
		wins = append(wins, w)
	}
	if len(wins) != 2 {
		t.Fatalf("parsed %d JSONL windows", len(wins))
	}

	first := wins[0]
	if !first.Start.Equal(w0) || !first.End.Equal(w0.Add(time.Minute)) {
		t.Errorf("window bounds = %v..%v", first.Start, first.End)
	}
	if first.Flows != 2 || first.ClassifiedFlows != 1 || first.ClassificationRate != 0.5 {
		t.Errorf("window totals = %+v", first)
	}
	yt := first.ByProvider["youtube"]
	if yt == nil || yt.Flows != 1 || yt.BytesDown != 10<<20 || yt.WatchSeconds != 10 {
		t.Errorf("youtube cell = %+v", yt)
	}
	if yt.MeanMbpsDown < 8 || yt.MeanMbpsDown > 9 {
		t.Errorf("youtube mean mbps = %v, want ~8.4", yt.MeanMbpsDown)
	}
	if c := first.ByPlatform["windows_chrome"]; c == nil || c.Flows != 1 {
		t.Errorf("platform cell = %+v", c)
	}
	if c := first.ByPlatform["unclassified"]; c == nil || c.Flows != 1 {
		t.Errorf("unclassified cell = %+v", c)
	}

	second := wins[1]
	if !second.Start.Equal(w0.Add(2 * time.Minute)) {
		t.Errorf("gap window not skipped: second starts %v", second.Start)
	}
	if second.Flows != 1 {
		t.Errorf("second window flows = %d", second.Flows)
	}
}

func TestRollupModelVersionAttribution(t *testing.T) {
	r := NewRollup(time.Minute, nil)
	// A hot-swap lands mid-window: flows split across two bank versions,
	// plus one classified by an ad-hoc (unversioned) bank.
	a := rollRec(fingerprint.YouTube, "windows_chrome", w0, 10*time.Second, 1<<20)
	a.ModelVersion = "v0001"
	b := rollRec(fingerprint.Netflix, "iOS_nativeApp", w0.Add(5*time.Second), 10*time.Second, 1<<20)
	b.ModelVersion = "v0002"
	c := rollRec(fingerprint.Disney, "macOS_safari", w0.Add(10*time.Second), 10*time.Second, 1<<20)
	unclassified := rollRec(fingerprint.Amazon, "", w0.Add(15*time.Second), 10*time.Second, 1<<20)
	for _, rec := range []*pipeline.FlowRecord{a, b, c, unclassified} {
		r.Add(rec)
	}
	cur := r.Current()
	want := map[string]int{"v0001": 1, "v0002": 1, "unversioned": 1}
	if len(cur.ModelVersions) != len(want) {
		t.Fatalf("model versions = %+v, want %+v", cur.ModelVersions, want)
	}
	for k, n := range want {
		if cur.ModelVersions[k] != n {
			t.Errorf("model version %s = %d, want %d", k, cur.ModelVersions[k], n)
		}
	}
}

// TestRollupLateRecords: a record whose window is open lands in it, however
// far behind the newest window; only one behind the watermark, whose window
// has sealed, is late, and it lands in the oldest window still open.
func TestRollupLateRecords(t *testing.T) {
	r := NewRollup(time.Minute, nil)
	r.Add(rollRec(fingerprint.Disney, "", w0.Add(5*time.Minute), time.Second, 1000))
	r.Add(rollRec(fingerprint.Disney, "", w0, 30*time.Second, 1000))
	if cur := r.Current(); cur.Flows != 2 || cur.LateFlows != 0 || r.OpenWindows() != 2 {
		t.Errorf("open = %d windows, flows %d late %d, want 2 windows, 2/0", r.OpenWindows(), cur.Flows, cur.LateFlows)
	}
	r.Advance(w0.Add(4 * time.Minute)) // seals the w0 window
	// An idle eviction surfacing after the watermark passed its flow.
	r.Add(rollRec(fingerprint.Disney, "", w0.Add(time.Minute), 30*time.Second, 1000))
	cur := r.Current()
	if cur.Flows != 2 || cur.LateFlows != 1 || !cur.Start.Equal(w0.Add(4*time.Minute)) {
		t.Errorf("window = %v flows %d late %d, want the 12:04 window, 2/1", cur.Start, cur.Flows, cur.LateFlows)
	}
	if r.Sealed() != 1 {
		t.Errorf("sealed = %d, want 1: a late record seals nothing", r.Sealed())
	}
}

func TestRollupFlushEmpty(t *testing.T) {
	r := NewRollup(0, nil) // default width
	if r.Width() != time.Minute {
		t.Errorf("default width = %v", r.Width())
	}
	r.Flush() // no window yet: must not panic or seal
	if r.Sealed() != 0 || r.Current() != nil {
		t.Error("flush of empty rollup produced a window")
	}
}

// orderFreeRecords is a record stream over a few windows whose sums a float
// fold would round differently in different orders: confidences, margins
// and durations at full precision.
func orderFreeRecords(rng *rand.Rand, n, windows int) []*pipeline.FlowRecord {
	labels := fingerprint.AllPlatformLabels()
	recs := make([]*pipeline.FlowRecord, n)
	for i := range recs {
		last := w0.Add(time.Duration(rng.Int64N(int64(windows) * int64(time.Minute))))
		dur := time.Duration(rng.Int64N(int64(time.Hour)))
		r := rollRec(fingerprint.Provider(rng.IntN(fingerprint.NumProviders)), "", last.Add(-dur), dur, rng.Int64N(1<<30))
		r.BytesUp = rng.Int64N(1 << 20)
		r.Verdict = pipeline.Verdict(rng.IntN(pipeline.NumVerdicts))
		r.Prediction.PlatformConf = rng.Float64()
		r.Prediction.PlatformMargin = rng.Float64() * r.Prediction.PlatformConf
		if r.Verdict == pipeline.VerdictClassified {
			r.Prediction.Platform = labels[rng.IntN(len(labels))]
		}
		r.ModelVersion = []string{"v0001", "v0002", ""}[rng.IntN(3)]
		r.ClassifyNanos = rng.Int64N(1 << 30)
		recs[i] = r
	}
	return recs
}

// foldInOrder adds recs to a fresh one-minute Rollup in the given order.
// After each Add it may advance the watermark, as far as the promise allows
// (the oldest LastSeen still to come) or to a random point short of that;
// then it flushes. It returns every sealed window, encoded.
func foldInOrder(t *testing.T, recs []*pipeline.FlowRecord, order []int, rng *rand.Rand) []string {
	t.Helper()
	var out []string
	r := NewRollup(time.Minute, sinkFunc(func(w *Window) error {
		raw, err := json.Marshal(w)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, string(raw))
		return nil
	}))
	for i, idx := range order {
		r.Add(recs[idx])
		if rng == nil || rng.IntN(2) == 0 {
			continue
		}
		promise := recs[order[len(order)-1]].LastSeen.Add(time.Hour)
		for _, j := range order[i+1:] {
			if recs[j].LastSeen.Before(promise) {
				promise = recs[j].LastSeen
			}
		}
		r.Advance(promise.Add(-time.Duration(rng.Int64N(int64(2 * time.Minute)))))
		r.Advance(promise)
	}
	r.Flush()
	return out
}

// TestRollupWindowsOrderFree: every permutation of a record stream, with any
// watermark schedule that keeps the promise, seals the same windows, byte
// for byte, with no late flows — the property that makes a daemon's windows
// the same at any shard count. Exhaustive over the 720 orders of six
// records in three windows, then random orders and schedules of a longer
// stream.
func TestRollupWindowsOrderFree(t *testing.T) {
	rng := rand.New(rand.NewPCG(48, 1))
	check := func(recs []*pipeline.FlowRecord, order []int, want []string, rng *rand.Rand) {
		t.Helper()
		got := foldInOrder(t, recs, order, rng)
		if len(got) != len(want) {
			t.Fatalf("order %v: %d windows, in LastSeen order %d", order, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("order %v: window %d\n%s\nin LastSeen order\n%s", order, i, got[i], want[i])
			}
		}
	}
	sorted := func(recs []*pipeline.FlowRecord) []int {
		order := make([]int, len(recs))
		for i := range order {
			order[i] = i
		}
		slices.SortStableFunc(order, func(a, b int) int { return recs[a].LastSeen.Compare(recs[b].LastSeen) })
		return order
	}

	six := orderFreeRecords(rng, 6, 3)
	want := foldInOrder(t, six, sorted(six), nil)
	if strings.Contains(strings.Join(want, ""), "late_flows") {
		t.Fatal("a record in LastSeen order landed late")
	}
	var permute func(order []int, k int)
	permute = func(order []int, k int) {
		if k == len(order) {
			check(six, order, want, nil)
			check(six, order, want, rand.New(rand.NewPCG(uint64(order[0]), uint64(order[5]))))
			return
		}
		for i := k; i < len(order); i++ {
			order[k], order[i] = order[i], order[k]
			permute(order, k+1)
			order[k], order[i] = order[i], order[k]
		}
	}
	permute([]int{0, 1, 2, 3, 4, 5}, 0)

	long := orderFreeRecords(rng, 300, 12)
	want = foldInOrder(t, long, sorted(long), nil)
	for trial := 0; trial < 100; trial++ {
		check(long, rng.Perm(len(long)), want, rng)
	}
}
