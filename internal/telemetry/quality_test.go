package telemetry

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"videoplat/internal/fingerprint"
	"videoplat/internal/pipeline"
)

// qualRec is rollRec with a verdict and confidence stamp, as the pipeline
// produces for a flow whose classification succeeded.
func qualRec(prov fingerprint.Provider, platform string, start time.Time, conf, margin float64) *pipeline.FlowRecord {
	r := rollRec(prov, platform, start, 10*time.Second, 10<<20)
	r.Verdict = pipeline.VerdictClassified
	r.Prediction.PlatformConf = conf
	r.Prediction.PlatformMargin = margin
	return r
}

// abstainRec is a flow the classifier saw but rejected below the confidence
// floor: the model ran, so the verdict is abstained and the prediction
// Unknown.
func abstainRec(prov fingerprint.Provider, start time.Time, conf float64) *pipeline.FlowRecord {
	r := rollRec(prov, "", start, 10*time.Second, 1<<20)
	r.Verdict = pipeline.VerdictAbstained
	r.Prediction = pipeline.Prediction{Status: pipeline.Unknown, PlatformConf: conf, PlatformMargin: conf}
	return r
}

// TestConfidenceHistBuckets pins the half-open-left bucket boundaries and
// that quantiles are exact under any merge order.
func TestConfidenceHistBuckets(t *testing.T) {
	cases := []struct {
		v    float64
		want int
	}{
		{-0.5, 0}, {0, 0}, {0.01, 0}, {0.05, 0}, {0.051, 1},
		{0.3, 5}, {0.7, 13}, {0.9, 17}, {0.951, 19}, {1.0, 19}, {1.5, 19},
	}
	for _, c := range cases {
		if got := confBucket(c.v); got != c.want {
			t.Errorf("confBucket(%v) = %d, want %d", c.v, got, c.want)
		}
	}

	// Quantile invariance: one histogram over all samples must equal the
	// merge of per-part histograms, bucket for bucket and quantile for
	// quantile.
	samples := []float64{0.3, 0.7, 0.9, 0.3, 0.55, 0.95, 0.1, 0.7}
	whole := &ConfidenceHist{}
	a, b := &ConfidenceHist{}, &ConfidenceHist{}
	for i, v := range samples {
		whole.Observe(v)
		if i%2 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
	}
	a.Merge(b)
	if a.Count != whole.Count || a.Sum != whole.Sum {
		t.Fatalf("merged hist = %d/%v, want %d/%v", a.Count, a.Sum, whole.Count, whole.Sum)
	}
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.9, 0.99, 1} {
		if a.Quantile(q) != whole.Quantile(q) {
			t.Errorf("q%v: merged %v != whole %v", q, a.Quantile(q), whole.Quantile(q))
		}
	}
	if got := whole.Quantile(0.5); got != 0.7 {
		t.Errorf("p50 = %v, want 0.7 (bucket upper bound)", got)
	}
}

// TestQualitySummaryMerge checks exact verdict counts, digest buckets, the
// drift maximum and the shadow sums across openWindow.merge — the
// arithmetic every downsampled tier depends on — and that the window it
// builds aliases nothing of the windows merged into it. The two sources
// carry a quality summary and no flows, which the built window keeps.
func TestQualitySummaryMerge(t *testing.T) {
	a := &Window{Quality: &QualitySummary{}}
	a.Quality.add(qualRec(fingerprint.YouTube, "windows_chrome", w0, 0.9, 0.5), nil)
	a.Quality.add(abstainRec(fingerprint.Netflix, w0, 0.3), nil)
	a.Quality.DriftScore = 0.08
	a.Quality.ShadowAgreed = 4

	b := &Window{Quality: &QualitySummary{}}
	b.Quality.add(qualRec(fingerprint.YouTube, "iOS_nativeApp", w0, 0.7, 0.2), nil)
	nh := rollRec(fingerprint.Netflix, "", w0, time.Second, 1<<10)
	nh.Verdict = pipeline.VerdictNoHandshake
	b.Quality.add(nh, nil)
	b.Quality.DriftScore = 0.03
	b.Quality.ShadowAgreed = 1
	b.Quality.ShadowDisagreed = 2

	var o openWindow
	o.merge(a)
	o.merge(b)
	m := o.window().Quality
	if m == nil {
		t.Fatal("merging two quality summaries built a window without one")
	}
	wantVerdicts := map[string]uint64{"classified": 2, "abstained": 1, "no-handshake": 1}
	for k, want := range wantVerdicts {
		if m.Verdicts[k] != want {
			t.Errorf("merged verdicts[%s] = %d, want %d", k, m.Verdicts[k], want)
		}
	}
	if len(m.Verdicts) != len(wantVerdicts) {
		t.Errorf("merged verdicts = %v, want %v", m.Verdicts, wantVerdicts)
	}
	if m.Confidence.Count != 3 {
		t.Errorf("merged confidence count = %d, want 3", m.Confidence.Count)
	}
	// 0.9→bucket 17, 0.3→5, 0.7→13; margins 0.5→9, 0.3→5, 0.2→3.
	for b, want := range map[int]uint64{17: 1, 5: 1, 13: 1} {
		if m.Confidence.Buckets[b] != want {
			t.Errorf("confidence bucket %d = %d, want %d", b, m.Confidence.Buckets[b], want)
		}
	}
	if m.Margin.Count != 3 {
		t.Errorf("merged margin count = %d, want 3", m.Margin.Count)
	}
	if m.DriftScore != 0.08 {
		t.Errorf("merged drift score = %v, want max 0.08", m.DriftScore)
	}
	if m.ShadowAgreed != 5 || m.ShadowDisagreed != 2 {
		t.Errorf("merged shadow = %d/%d, want 5/2", m.ShadowAgreed, m.ShadowDisagreed)
	}

	// The built window must be deep: mutating it cannot reach a. (a holds
	// two classification attempts — the classified flow and the
	// abstention.)
	if a.Quality.Verdicts["classified"] != 1 || a.Quality.Confidence.Count != 2 {
		t.Fatalf("merge mutated its source: %+v", a.Quality)
	}
	m.Verdicts["classified"] = 99
	m.Confidence.Observe(0.5)
	if a.Quality.Verdicts["classified"] != 1 || a.Quality.Confidence.Count != 2 {
		t.Error("the merged window aliases its source's maps or histograms")
	}
}

// TestWindowQualityFold checks the rollup folds verdicts and confidence into
// the window's quality summary and per-cell abstain counters, and that
// Current deep-copies them.
func TestWindowQualityFold(t *testing.T) {
	cap := &captureSink{}
	r := NewRollup(time.Minute, cap)
	r.Add(qualRec(fingerprint.YouTube, "windows_chrome", w0, 0.9, 0.5))
	r.Add(qualRec(fingerprint.YouTube, "windows_chrome", w0.Add(time.Second), 0.7, 0.3))
	r.Add(abstainRec(fingerprint.YouTube, w0.Add(2*time.Second), 0.3))
	nh := rollRec(fingerprint.Netflix, "", w0.Add(3*time.Second), time.Second, 1<<10)
	nh.SNI = "nflxvideo.net" // provider matched, but the bank had no model for it
	nh.Verdict = pipeline.VerdictError
	r.Add(nh)

	cur := r.Current()
	if cur.Quality == nil || cur.Quality.Verdicts["classified"] != 2 {
		t.Fatalf("current quality = %+v", cur.Quality)
	}
	cur.Quality.Verdicts["classified"] = 99
	cur.Quality.Confidence.Observe(0.1)
	if live := r.Current(); live.Quality.Verdicts["classified"] != 2 || live.Quality.Confidence.Count != 3 {
		t.Fatal("Current aliases the live quality summary")
	}

	r.Flush()
	if len(cap.wins) != 1 {
		t.Fatalf("sealed %d windows, want 1", len(cap.wins))
	}
	w := cap.wins[0]
	if w.Quality.Verdicts["classified"] != 2 || w.Quality.Verdicts["abstained"] != 1 ||
		w.Quality.Verdicts["error"] != 1 {
		t.Fatalf("sealed verdicts = %v", w.Quality.Verdicts)
	}
	if w.Quality.Confidence.Count != 3 || w.Quality.Margin.Count != 3 {
		t.Fatalf("sealed quality hists = %d conf / %d margin, want 3/3",
			w.Quality.Confidence.Count, w.Quality.Margin.Count)
	}
	yt := w.ByProvider[fingerprint.YouTube.String()]
	if yt.ClassifiedFlows != 2 || yt.AbstainedFlows != 1 || yt.Confidence.Count != 3 {
		t.Fatalf("youtube cell = %+v", yt)
	}
	nf := w.ByProvider[fingerprint.Netflix.String()]
	if nf.AbstainedFlows != 0 || nf.Confidence != nil {
		t.Fatalf("netflix cell should have no classification attempts: %+v", nf)
	}

}

// TestQueryQualitySeries is the acceptance-criteria path: verdict-count,
// abstain-rate, and confidence-quantile series by provider that stay EXACT
// across 1m→10m downsampling and a persistence restart.
func TestQueryQualitySeries(t *testing.T) {
	var persisted bytes.Buffer
	store := NewStore(StoreConfig{Tiers: []time.Duration{10 * time.Minute}})

	// 30 one-minute windows, each with two confident YouTube classifications
	// and one Netflix abstention — fixed values so the expected histogram
	// buckets (0.9→17, 0.7→13, 0.3→5) and quantiles are known exactly.
	var recs []*pipeline.FlowRecord
	for i := 0; i < 30; i++ {
		base := w0.Add(time.Duration(i) * time.Minute)
		recs = append(recs,
			qualRec(fingerprint.YouTube, "windows_chrome", base, 0.9, 0.5),
			qualRec(fingerprint.YouTube, "iOS_nativeApp", base.Add(10*time.Second), 0.7, 0.3),
			abstainRec(fingerprint.Netflix, base.Add(20*time.Second), 0.3))
	}
	feed(t, MultiSink(store, NewJSONLSink(&persisted)), sealWindows(t, time.Minute, recs...)...)

	// Raw-resolution totals: every 1m bucket carries its verdict counts,
	// abstain rate, and exact confidence quantiles.
	res, err := store.Query(time.Time{}, time.Time{}, time.Minute, GroupTotal)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 1 || len(res.Series[0].Points) != 30 {
		t.Fatalf("raw query: %d series / %d points", len(res.Series), len(res.Series[0].Points))
	}
	for i, p := range res.Series[0].Points {
		if p.Verdicts["classified"] != 2 || p.Verdicts["abstained"] != 1 {
			t.Fatalf("point %d verdicts = %v", i, p.Verdicts)
		}
		if p.AbstainedFlows != 1 || p.AbstainRate != 1.0/3 {
			t.Errorf("point %d abstain = %d flows rate %v, want 1 flows rate 1/3", i, p.AbstainedFlows, p.AbstainRate)
		}
		if p.ConfidenceCount != 3 || p.ConfidenceP10 != 0.3 || p.ConfidenceP50 != 0.7 {
			t.Errorf("point %d confidence = %d samples p10 %v p50 %v, want 3/0.3/0.7",
				i, p.ConfidenceCount, p.ConfidenceP10, p.ConfidenceP50)
		}
	}

	// 10-minute step: counts scale by 10, rates and quantiles are unchanged —
	// the fixed-width buckets make the merged quantile identical to the
	// quantile over the union of samples.
	res10, err := store.Query(time.Time{}, time.Time{}, 10*time.Minute, GroupTotal)
	if err != nil {
		t.Fatal(err)
	}
	pts := res10.Series[0].Points
	if len(pts) != 3 {
		t.Fatalf("10m query: %d points, want 3", len(pts))
	}
	for i, p := range pts {
		if p.Verdicts["classified"] != 20 || p.Verdicts["abstained"] != 10 {
			t.Fatalf("10m point %d verdicts = %v", i, p.Verdicts)
		}
		if p.AbstainRate != 1.0/3 || p.ConfidenceCount != 30 ||
			p.ConfidenceP10 != 0.3 || p.ConfidenceP50 != 0.7 {
			t.Errorf("10m point %d = rate %v count %d p10 %v p50 %v",
				i, p.AbstainRate, p.ConfidenceCount, p.ConfidenceP10, p.ConfidenceP50)
		}
	}

	// By provider: the abstaining provider and the confident one must not
	// bleed into each other's series.
	resProv, err := store.Query(time.Time{}, time.Time{}, 10*time.Minute, GroupProvider)
	if err != nil {
		t.Fatal(err)
	}
	byKey := map[string][]QueryPoint{}
	for _, s := range resProv.Series {
		byKey[s.Key] = s.Points
	}
	yt, nf := byKey[fingerprint.YouTube.String()], byKey[fingerprint.Netflix.String()]
	if yt == nil || nf == nil {
		t.Fatalf("provider series missing: have %v", len(byKey))
	}
	for i := range yt {
		if yt[i].AbstainRate != 0 || yt[i].ConfidenceCount != 20 || yt[i].ConfidenceP10 != 0.7 {
			t.Errorf("youtube point %d = %+v, want no abstains, p10 0.7", i, yt[i])
		}
		if nf[i].AbstainRate != 1 || nf[i].AbstainedFlows != 10 || nf[i].ConfidenceP50 != 0.3 {
			t.Errorf("netflix point %d = %+v, want all abstained at 0.3", i, nf[i])
		}
	}

	// Restart: reload the persisted JSONL into a fresh store; the quality
	// series must survive exactly.
	fresh := NewStore(StoreConfig{Tiers: []time.Duration{10 * time.Minute}})
	if n, err := fresh.Reload(bytes.NewReader(persisted.Bytes())); err != nil || n != 30 {
		t.Fatalf("Reload = %d, %v; want 30, nil", n, err)
	}
	resBack, err := fresh.Query(time.Time{}, time.Time{}, 10*time.Minute, GroupTotal)
	if err != nil {
		t.Fatal(err)
	}
	back := resBack.Series[0].Points
	if len(back) != len(pts) {
		t.Fatalf("reloaded points = %d, want %d", len(back), len(pts))
	}
	for i := range pts {
		if back[i].AbstainRate != pts[i].AbstainRate || back[i].ConfidenceP10 != pts[i].ConfidenceP10 ||
			back[i].ConfidenceP50 != pts[i].ConfidenceP50 || back[i].Verdicts["classified"] != pts[i].Verdicts["classified"] ||
			back[i].Verdicts["abstained"] != pts[i].Verdicts["abstained"] {
			t.Errorf("point %d changed across restart: %+v vs %+v", i, back[i], pts[i])
		}
	}

	// Evict the raw ring so the downsampled 10m tier serves the query; the
	// tier's merged quality must agree with raw re-aggregation.
	small := NewStore(StoreConfig{MaxWindows: 5, Tiers: []time.Duration{10 * time.Minute}})
	feed(t, small, sealWindows(t, time.Minute, recs...)...)
	resTier, err := small.Query(w0, time.Time{}, 10*time.Minute, GroupTotal)
	if err != nil {
		t.Fatal(err)
	}
	if resTier.TierSeconds != 600 {
		t.Fatalf("query served from %vs tier, want 600 (raw evicted)", resTier.TierSeconds)
	}
	tierPts := resTier.Series[0].Points
	if len(tierPts) != 3 {
		t.Fatalf("tier query: %d points, want 3", len(tierPts))
	}
	for i := range tierPts {
		if tierPts[i].AbstainRate != pts[i].AbstainRate || tierPts[i].ConfidenceP10 != pts[i].ConfidenceP10 ||
			tierPts[i].Verdicts["classified"] != pts[i].Verdicts["classified"] {
			t.Errorf("downsampled point %d diverges: %+v vs raw %+v", i, tierPts[i], pts[i])
		}
	}
}

// TestQualityFoldZeroAlloc pins that folding a flow into a warm window
// allocates nothing — the recording path runs once per finalized flow on the
// shard worker that evicted it. Rollup.Add into an open window covers the whole fold
// (both cells, the model-version count, the latency summary and the quality
// summary). The first record after a seal allocates nothing either, since
// the Rollup reuses its open window's storage. What a window costs on the
// rest of its path — built at the seal, retained by a Store's raw tier and
// folded into its two downsampling tiers — is pinned per window for one
// holding every provider, both kinds of cell and a timed classification.
func TestQualityFoldZeroAlloc(t *testing.T) {
	rec := qualRec(fingerprint.YouTube, "windows_chrome", w0, 0.9, 0.5)
	rec.ModelVersion = "v1"
	rec.ClassifyNanos = 40_000
	r := NewRollup(time.Minute, nil)
	r.Add(rec) // warm: the open window's storage exists after the first fold
	if allocs := testing.AllocsPerRun(100, func() { r.Add(rec) }); allocs != 0 {
		t.Errorf("window fold allocates %v times per record, want 0", allocs)
	}
	if w := r.Current(); w.Latency == nil || w.Latency.Count != 102 || w.ModelVersions["v1"] != 102 {
		t.Fatalf("the folds did not reach the latency summary and the version count: %+v", w)
	}

	// A window as a seal sees it: four providers, an unmatched flow, two
	// platforms and the unclassified cell, two model versions.
	window := []*pipeline.FlowRecord{rec}
	for _, p := range fingerprint.AllProviders() {
		c := qualRec(p, "iOS_nativeApp", w0.Add(time.Second), 0.7, 0.2)
		c.ModelVersion = "v2"
		window = append(window, c, abstainRec(p, w0.Add(2*time.Second), 0.3))
	}
	nh := rollRec(fingerprint.Netflix, "", w0.Add(3*time.Second), time.Second, 1<<10)
	nh.Verdict = pipeline.VerdictNoHandshake
	window = append(window, nh)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	store := NewStore(StoreConfig{Tiers: []time.Duration{10 * time.Minute, time.Hour}})
	r = NewRollup(time.Minute, store)
	for _, rec := range window {
		r.Add(rec)
	}
	const seals, windowAllocs = 20, 24.0 // measured on Go 1.24, amd64
	var allocs uint64
	for i := 0; i < seals; i++ {
		allocs += mallocs(func() { r.Flush() })
		if n := mallocs(func() { r.Add(window[0]) }); n != 0 {
			t.Errorf("the first record after a seal allocates %d times, want 0", n)
		}
		for _, rec := range window[1:] {
			r.Add(rec)
		}
	}
	per := float64(allocs) / seals
	t.Logf("a window sealed into a store with two tiers: %.1f allocations", per)
	if per > windowAllocs {
		t.Errorf("sealing a window into a store allocates %.1f times per window, want at most %v", per, windowAllocs)
	}
	if st := store.Stats(); st.Tiers[0].Windows != seals || !st.Tiers[1].OpenBucket || !st.Tiers[2].OpenBucket {
		t.Fatalf("the store did not take every window into every tier: %+v", st)
	}
}

// mallocs reports how many heap allocations f makes.
func mallocs(f func()) uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	f()
	runtime.ReadMemStats(&ms)
	return ms.Mallocs - before
}
