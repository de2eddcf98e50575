package telemetry

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"videoplat/internal/fingerprint"
	"videoplat/internal/leakcheck"
	"videoplat/internal/pipeline"
)

// captureSink retains sealed windows for assertions.
type captureSink struct{ wins []*Window }

func (c *captureSink) WriteWindow(w *Window) error {
	c.wins = append(c.wins, w)
	return nil
}

// sealWindows runs records through a real Rollup so the windows a test
// stores carry exactly the derived fields production windows do.
func sealWindows(t *testing.T, width time.Duration, recs ...*pipeline.FlowRecord) []*Window {
	t.Helper()
	cap := &captureSink{}
	r := NewRollup(width, cap)
	for _, rec := range recs {
		r.Add(rec)
	}
	r.Flush()
	return cap.wins
}

func feed(t *testing.T, s Sink, wins ...*Window) {
	t.Helper()
	for _, w := range wins {
		if err := s.WriteWindow(w); err != nil {
			t.Fatalf("WriteWindow: %v", err)
		}
	}
}

func TestStoreQueryStepReaggregation(t *testing.T) {
	leakcheck.Check(t)
	// Two 1-minute windows re-aggregated into one 2-minute point: sums for
	// flows/bytes/watch, max for peak, and a watch-time-weighted mean —
	// NOT the average of the two windows' means.
	a := rollRec(fingerprint.YouTube, "windows_chrome", w0, 10*time.Second, 10<<20)
	b := rollRec(fingerprint.YouTube, "iOS_nativeApp", w0.Add(70*time.Second), 20*time.Second, 5<<20)
	wins := sealWindows(t, time.Minute, a, b)
	if len(wins) != 2 {
		t.Fatalf("sealed %d windows, want 2", len(wins))
	}

	s := NewStore(StoreConfig{})
	feed(t, s, wins...)

	res, err := s.Query(time.Time{}, time.Time{}, 2*time.Minute, GroupProvider)
	if err != nil {
		t.Fatal(err)
	}
	if res.SourceWindows != 2 || len(res.Series) != 1 {
		t.Fatalf("result = %d source windows, %d series; want 2, 1", res.SourceWindows, len(res.Series))
	}
	sr := res.Series[0]
	if sr.Key != "youtube" || len(sr.Points) != 1 {
		t.Fatalf("series = %q with %d points", sr.Key, len(sr.Points))
	}
	p := sr.Points[0]
	if !p.Start.Equal(w0) || !p.End.Equal(w0.Add(2*time.Minute)) {
		t.Errorf("point bounds = %v..%v", p.Start, p.End)
	}
	if p.Windows != 2 || p.Flows != 2 || p.ClassifiedFlows != 2 {
		t.Errorf("point counts = %+v", p)
	}
	if p.BytesDown != 15<<20 || p.WatchSeconds != 30 {
		t.Errorf("bytes/watch = %d/%v", p.BytesDown, p.WatchSeconds)
	}
	wantMean := float64(15<<20) * 8 / 1e6 / 30
	if math.Abs(p.MeanMbpsDown-wantMean) > 1e-9 {
		t.Errorf("merged mean = %v, want weighted %v", p.MeanMbpsDown, wantMean)
	}
	// The naive average of the two window means would be wrong.
	m0 := wins[0].ByProvider["youtube"].MeanMbpsDown
	m1 := wins[1].ByProvider["youtube"].MeanMbpsDown
	if naive := (m0 + m1) / 2; math.Abs(p.MeanMbpsDown-naive) < 1e-9 {
		t.Errorf("merged mean %v equals naive average — not watch-time weighted", naive)
	}
	wantPeak := math.Max(wins[0].ByProvider["youtube"].PeakMbpsDown, wins[1].ByProvider["youtube"].PeakMbpsDown)
	if p.PeakMbpsDown != wantPeak {
		t.Errorf("merged peak = %v, want %v", p.PeakMbpsDown, wantPeak)
	}

	// Bucket alignment: a step equal to the window width returns the
	// original windows' buckets; a sub-width step is raised to the width.
	res, err = s.Query(time.Time{}, time.Time{}, time.Second, GroupTotal)
	if err != nil {
		t.Fatal(err)
	}
	if res.StepSeconds != 60 {
		t.Errorf("sub-width step not clamped: %v", res.StepSeconds)
	}
	if len(res.Series) != 1 || len(res.Series[0].Points) != 2 {
		t.Fatalf("total series = %+v", res.Series)
	}
	if got := res.Series[0].Points[0].Flows + res.Series[0].Points[1].Flows; got != 2 {
		t.Errorf("total flows across points = %d", got)
	}
}

func TestStoreQueryRangeAndGroups(t *testing.T) {
	leakcheck.Check(t)
	recs := []*pipeline.FlowRecord{
		rollRec(fingerprint.YouTube, "windows_chrome", w0, 10*time.Second, 1<<20),
		rollRec(fingerprint.Netflix, "", w0.Add(time.Minute), 10*time.Second, 2<<20),
		rollRec(fingerprint.Disney, "macOS_safari", w0.Add(2*time.Minute), 10*time.Second, 3<<20),
	}
	recs[1].SNI = "nflxvideo.net" // provider identified but never classified
	recs[1].Verdict = pipeline.VerdictError
	s := NewStore(StoreConfig{})
	feed(t, s, sealWindows(t, time.Minute, recs...)...)

	// Half-open range [since, until) selects windows by Start.
	res, err := s.Query(w0.Add(time.Minute), w0.Add(2*time.Minute), 0, GroupProvider)
	if err != nil {
		t.Fatal(err)
	}
	if res.SourceWindows != 1 || len(res.Series) != 1 || res.Series[0].Key != "netflix" {
		t.Fatalf("range query = %+v", res)
	}

	// Platform grouping separates classified platforms from "unclassified".
	res, err = s.Query(time.Time{}, time.Time{}, time.Hour, GroupPlatform)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, sr := range res.Series {
		keys[sr.Key] = true
	}
	for _, want := range []string{"windows_chrome", "macOS_safari", "unclassified"} {
		if !keys[want] {
			t.Errorf("platform series missing %q (have %v)", want, keys)
		}
	}

	if _, err := s.Query(time.Time{}, time.Time{}, 0, "device"); err == nil {
		t.Error("unknown group-by accepted")
	}
}

func TestStoreQueryLateFlowsAndModelVersions(t *testing.T) {
	leakcheck.Check(t)
	// Window 1: one v0001 flow plus a late flow; window 2: two v0002 flows.
	// Merged into one bucket, late counts and per-version counts must sum.
	a := rollRec(fingerprint.YouTube, "windows_chrome", w0, 10*time.Second, 1<<20)
	a.ModelVersion = "v0001"
	late := rollRec(fingerprint.Netflix, "", w0.Add(-time.Hour), 10*time.Second, 1<<20)
	b := rollRec(fingerprint.Disney, "macOS_safari", w0.Add(time.Minute), 10*time.Second, 1<<20)
	b.ModelVersion = "v0002"
	c := rollRec(fingerprint.Amazon, "iOS_nativeApp", w0.Add(61*time.Second), 10*time.Second, 1<<20)
	c.ModelVersion = "v0002"

	cap := &captureSink{}
	r := NewRollup(time.Minute, cap)
	r.Add(a)
	r.Add(late) // folded into the open window as a late flow
	r.Add(b)
	r.Add(c)
	r.Flush()
	if len(cap.wins) != 2 || cap.wins[0].LateFlows != 1 {
		t.Fatalf("sealed = %d windows, late = %d", len(cap.wins), cap.wins[0].LateFlows)
	}

	s := NewStore(StoreConfig{})
	feed(t, s, cap.wins...)

	res, err := s.Query(time.Time{}, time.Time{}, time.Hour, GroupTotal)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Series[0].Points[0]
	if p.Flows != 4 || p.LateFlows != 1 {
		t.Errorf("total point = flows %d late %d, want 4/1", p.Flows, p.LateFlows)
	}

	res, err = s.Query(time.Time{}, time.Time{}, time.Hour, GroupModel)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]int{}
	for _, sr := range res.Series {
		if len(sr.Points) != 1 {
			t.Fatalf("model series %q has %d points", sr.Key, len(sr.Points))
		}
		got[sr.Key] = sr.Points[0].Flows
	}
	want := map[string]int{"v0001": 1, "v0002": 2}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("model attribution = %v, want %v", got, want)
	}
}

func TestStoreRetentionEvictionOrder(t *testing.T) {
	leakcheck.Check(t)
	var recs []*pipeline.FlowRecord
	for i := 0; i < 5; i++ {
		recs = append(recs, rollRec(fingerprint.YouTube, "", w0.Add(time.Duration(i)*time.Minute), time.Second, 1000))
	}
	wins := sealWindows(t, time.Minute, recs...)

	s := NewStore(StoreConfig{MaxWindows: 3})
	feed(t, s, wins...)

	kept, _, err := s.Windows(time.Time{}, time.Time{}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(kept) != 3 {
		t.Fatalf("retained %d windows, want 3", len(kept))
	}
	// Oldest evicted first: the survivors are the newest three, in order.
	for i, w := range kept {
		want := w0.Add(time.Duration(i+2) * time.Minute)
		if !w.Start.Equal(want) {
			t.Errorf("retained[%d].Start = %v, want %v", i, w.Start, want)
		}
	}
	st := s.Stats()
	if st.EvictedCount != 2 || st.EvictedAge != 0 {
		t.Errorf("evictions = count %d age %d, want 2/0", st.EvictedCount, st.EvictedAge)
	}
	if st.Tiers[0].Windows != 3 || !st.Tiers[0].OldestStart.Equal(w0.Add(2*time.Minute)) {
		t.Errorf("tier stats = %+v", st.Tiers[0])
	}

	// Age retention is anchored to the newest window's End, in trace time.
	s = NewStore(StoreConfig{MaxAge: 90 * time.Second})
	feed(t, s, wins...)
	kept, _, err = s.Windows(time.Time{}, time.Time{}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Newest End is w0+5m; the horizon keeps windows ending after w0+3m30s.
	if len(kept) != 2 {
		t.Fatalf("age retention kept %d windows, want 2", len(kept))
	}
	if got := s.Stats().EvictedAge; got != 3 {
		t.Errorf("age evictions = %d, want 3", got)
	}
}

func TestStoreDownsampleTierBoundaries(t *testing.T) {
	leakcheck.Check(t)
	// 1-minute windows into a 3-minute tier: minutes 0,1,2 share a bucket,
	// minute 3 opens the next and seals the first.
	var recs []*pipeline.FlowRecord
	for i := 0; i < 4; i++ {
		recs = append(recs, rollRec(fingerprint.YouTube, "windows_chrome", w0.Add(time.Duration(i)*time.Minute), time.Second, 1<<20))
	}
	wins := sealWindows(t, time.Minute, recs...)

	s := NewStore(StoreConfig{Tiers: []time.Duration{3 * time.Minute}})
	feed(t, s, wins[:3]...)
	st := s.Stats()
	if len(st.Tiers) != 2 {
		t.Fatalf("tiers = %+v", st.Tiers)
	}
	coarse := st.Tiers[1]
	if coarse.WidthSeconds != 180 || coarse.Windows != 0 || !coarse.OpenBucket {
		t.Fatalf("coarse tier before boundary = %+v", coarse)
	}

	feed(t, s, wins[3])
	st = s.Stats()
	coarse = st.Tiers[1]
	if coarse.Windows != 1 || !coarse.OpenBucket || coarse.Compactions != 1 || st.Compactions != 1 {
		t.Fatalf("coarse tier after boundary = %+v (store compactions %d)", coarse, st.Compactions)
	}
	sealed, _, err := s.Windows(time.Time{}, time.Time{}, 3*time.Minute, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sealed) != 2 { // sealed bucket + open partial
		t.Fatalf("coarse windows = %d, want sealed+open = 2", len(sealed))
	}
	first := sealed[0]
	if !first.Start.Equal(w0) || !first.End.Equal(w0.Add(3*time.Minute)) {
		t.Errorf("bucket bounds = %v..%v, want aligned 3m", first.Start, first.End)
	}
	if first.Flows != 3 || first.ByProvider["youtube"].BytesDown != 3<<20 {
		t.Errorf("bucket aggregates = %+v", first)
	}
	if _, _, err := s.Windows(time.Time{}, time.Time{}, 7*time.Minute, 0); err == nil {
		t.Error("unknown tier accepted")
	}
}

func TestStoreQueryFallsBackToCoarseTier(t *testing.T) {
	leakcheck.Check(t)
	// Raw retention of 2 with a 3-minute tier: after 6 windows the raw ring
	// only reaches back 2 minutes, so a full-history query must be served
	// from the coarse tier — same totals, coarser resolution.
	var recs []*pipeline.FlowRecord
	for i := 0; i < 6; i++ {
		recs = append(recs, rollRec(fingerprint.YouTube, "windows_chrome", w0.Add(time.Duration(i)*time.Minute), time.Second, 1<<20))
	}
	wins := sealWindows(t, time.Minute, recs...)

	s := NewStore(StoreConfig{MaxWindows: 2, Tiers: []time.Duration{3 * time.Minute}})
	feed(t, s, wins...)

	res, err := s.Query(w0, time.Time{}, 3*time.Minute, GroupTotal)
	if err != nil {
		t.Fatal(err)
	}
	if res.TierSeconds != 180 {
		t.Fatalf("query served from tier %vs, want coarse 180", res.TierSeconds)
	}
	var flows int
	for _, p := range res.Series[0].Points {
		flows += p.Flows
	}
	if flows != 6 {
		t.Errorf("coarse-tier total flows = %d, want 6", flows)
	}

	// A recent range the raw ring still covers is served raw.
	res, err = s.Query(w0.Add(4*time.Minute), time.Time{}, 3*time.Minute, GroupTotal)
	if err != nil {
		t.Fatal(err)
	}
	if res.TierSeconds != 60 {
		t.Errorf("recent query served from tier %vs, want raw 60", res.TierSeconds)
	}
}

func TestStorePersistenceReloadRoundTrip(t *testing.T) {
	leakcheck.Check(t)
	recs := []*pipeline.FlowRecord{
		rollRec(fingerprint.YouTube, "windows_chrome", w0, 10*time.Second, 10<<20),
		rollRec(fingerprint.Netflix, "iOS_nativeApp", w0.Add(time.Minute), 20*time.Second, 5<<20),
		rollRec(fingerprint.Disney, "", w0.Add(3*time.Minute), 30*time.Second, 7<<20),
	}
	recs[0].ModelVersion = "v0001"

	var jsonl bytes.Buffer
	src := NewStore(StoreConfig{Tiers: []time.Duration{2 * time.Minute}})
	feed(t, MultiSink(src, NewJSONLSink(&jsonl)), sealWindows(t, time.Minute, recs...)...)

	dst := NewStore(StoreConfig{Tiers: []time.Duration{2 * time.Minute}})
	n, err := dst.Reload(bytes.NewReader(jsonl.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("reloaded %d windows, want 3", n)
	}
	if st := dst.Stats(); st.LoadedWindows != 3 {
		t.Errorf("stats loaded = %d", st.LoadedWindows)
	}

	for _, group := range []string{GroupTotal, GroupProvider, GroupPlatform, GroupModel} {
		a, err := src.Query(time.Time{}, time.Time{}, 2*time.Minute, group)
		if err != nil {
			t.Fatal(err)
		}
		b, err := dst.Query(time.Time{}, time.Time{}, 2*time.Minute, group)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("group %q: reloaded query differs\n live: %+v\n reloaded: %+v", group, a, b)
		}
	}
	if !dst.Latest().Equal(src.Latest()) {
		t.Errorf("latest = %v, want %v", dst.Latest(), src.Latest())
	}
}

func TestStoreWindowsLimitKeepsNewest(t *testing.T) {
	leakcheck.Check(t)
	var recs []*pipeline.FlowRecord
	for i := 0; i < 5; i++ {
		recs = append(recs, rollRec(fingerprint.YouTube, "", w0.Add(time.Duration(i)*time.Minute), time.Second, 1000))
	}
	s := NewStore(StoreConfig{})
	feed(t, s, sealWindows(t, time.Minute, recs...)...)

	wins, total, err := s.Windows(time.Time{}, time.Time{}, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if total != 5 || len(wins) != 2 {
		t.Fatalf("limit listing = %d of %d, want 2 of 5", len(wins), total)
	}
	// The newest two survive, still in ascending order.
	if !wins[0].Start.Equal(w0.Add(3*time.Minute)) || !wins[1].Start.Equal(w0.Add(4*time.Minute)) {
		t.Errorf("limited windows start %v, %v", wins[0].Start, wins[1].Start)
	}
}

func TestStoreQueryCoarseTierAlignsSince(t *testing.T) {
	leakcheck.Check(t)
	// Raw retention of 2 with a 3-minute tier: a since that lands inside a
	// coarse bucket must widen to its boundary, not drop the bucket — the
	// straddling bucket's flows stay in the response.
	var recs []*pipeline.FlowRecord
	for i := 0; i < 6; i++ {
		recs = append(recs, rollRec(fingerprint.YouTube, "windows_chrome", w0.Add(time.Duration(i)*time.Minute), time.Second, 1<<20))
	}
	s := NewStore(StoreConfig{MaxWindows: 2, Tiers: []time.Duration{3 * time.Minute}})
	feed(t, s, sealWindows(t, time.Minute, recs...)...)

	// since = w0+1m: raw is evicted back to w0+4m, so the coarse tier
	// serves; its first bucket [w0, w0+3m) straddles since.
	res, err := s.Query(w0.Add(time.Minute), time.Time{}, 3*time.Minute, GroupTotal)
	if err != nil {
		t.Fatal(err)
	}
	if res.TierSeconds != 180 {
		t.Fatalf("served from tier %vs, want coarse 180", res.TierSeconds)
	}
	if !res.Since.Equal(w0) {
		t.Errorf("since not aligned to the serving tier: %v, want %v", res.Since, w0)
	}
	var flows int
	for _, p := range res.Series[0].Points {
		flows += p.Flows
	}
	if flows != 6 {
		t.Errorf("straddling bucket dropped: %d flows, want all 6", flows)
	}
}

func TestStoreQueryModelCountsAttempts(t *testing.T) {
	leakcheck.Check(t)
	// Model attribution counts every classification attempt, including
	// confidence-rejected (Unknown) predictions — unlike classified_flows.
	ok := rollRec(fingerprint.YouTube, "windows_chrome", w0, 10*time.Second, 1<<20)
	ok.ModelVersion = "v0001"
	rejected := rollRec(fingerprint.Netflix, "", w0.Add(5*time.Second), 10*time.Second, 1<<20)
	rejected.Verdict = pipeline.VerdictAbstained
	rejected.Prediction = pipeline.Prediction{Status: pipeline.Unknown}
	rejected.ModelVersion = "v0001"

	s := NewStore(StoreConfig{})
	feed(t, s, sealWindows(t, time.Minute, ok, rejected)...)

	model, err := s.Query(time.Time{}, time.Time{}, time.Hour, GroupModel)
	if err != nil {
		t.Fatal(err)
	}
	if n := model.Series[0].Points[0].Flows; n != 2 {
		t.Errorf("v0001 attempts = %d, want 2 (rejection included)", n)
	}
	if c := model.Series[0].Points[0].ClassifiedFlows; c != 0 {
		t.Errorf("model series sets classified_flows = %d; attempts must not masquerade as classifications", c)
	}
	total, err := s.Query(time.Time{}, time.Time{}, time.Hour, GroupTotal)
	if err != nil {
		t.Fatal(err)
	}
	if c := total.Series[0].Points[0].ClassifiedFlows; c != 1 {
		t.Errorf("total classified = %d, want 1 (Unknown excluded)", c)
	}
}

type failSink struct{ err error }

func (f *failSink) WriteWindow(*Window) error { return f.err }

func TestRollupCountsEverySinkError(t *testing.T) {
	leakcheck.Check(t)
	sink := &failSink{err: errors.New("disk full")}
	r := NewRollup(time.Minute, sink)
	for i := 0; i < 3; i++ {
		r.Add(rollRec(fingerprint.YouTube, "", w0.Add(time.Duration(i)*time.Minute), time.Second, 1000))
	}
	r.Flush()
	// 3 sealed windows, all failed: the first error string is kept AND all
	// three failures are counted (the old behavior lost failures 2 and 3).
	if r.Sealed() != 3 {
		t.Fatalf("sealed = %d", r.Sealed())
	}
	if err := r.Err(); err == nil || err.Error() != "disk full" {
		t.Errorf("first error = %v", err)
	}
	if got := r.SinkErrors(); got != 3 {
		t.Errorf("sink errors = %d, want 3", got)
	}
}

func TestMultiSinkFanOut(t *testing.T) {
	leakcheck.Check(t)
	good := &captureSink{}
	bad := &failSink{err: errors.New("down")}
	m := MultiSink(bad, good)
	w := &Window{Start: w0, End: w0.Add(time.Minute)}
	if err := m.WriteWindow(w); err == nil {
		t.Error("joined error lost")
	}
	// The failing sink must not starve later sinks.
	if len(good.wins) != 1 {
		t.Errorf("good sink got %d windows", len(good.wins))
	}
}
