package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strings"
	"testing"
	"time"

	"videoplat/internal/telemetry"
)

// TestQueryConsistentWithSealedJSONL is the acceptance check for the
// queryable store: after a finite replay, /query totals must be exactly the
// totals of the sealed JSONL windows — same flow counts, same byte counts,
// per provider — and /windows must list every sealed window.
func TestQueryConsistentWithSealedJSONL(t *testing.T) {
	if testing.Short() {
		t.Skip("bank training is slow")
	}
	var sinkBuf bytes.Buffer
	srv, err := New(trainBank(t), synth(3, 30), Config{
		Addr:        "127.0.0.1:0",
		Shards:      4,
		WindowWidth: time.Minute,
		Sink:        telemetry.NewJSONLSink(&sinkBuf),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- srv.Run(ctx) }()
	base := "http://" + srv.Addr()

	select {
	case <-srv.ReplayDone():
	case <-time.After(60 * time.Second):
		t.Fatal("replay did not finish")
	}
	// The HTTP surface serves the same store (exhaustively exercised in
	// TestWindowsAndQueryEndpoints); here just confirm it answers.
	var viaHTTP telemetry.QueryResult
	getJSON(t, base+"/query?by=provider", &viaHTTP)

	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("run: %v", err)
	}

	// Ground truth: per-provider sums over every sealed JSONL window.
	type agg struct {
		flows, classified int
		bytesDown, up     int64
		watch             float64
	}
	want := map[string]*agg{}
	sealed := 0
	sc := bufio.NewScanner(&sinkBuf)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20)
	for sc.Scan() {
		var w telemetry.Window
		if err := json.Unmarshal(sc.Bytes(), &w); err != nil {
			t.Fatalf("bad sink line: %v", err)
		}
		sealed++
		for prov, c := range w.ByProvider {
			a := want[prov]
			if a == nil {
				a = &agg{}
				want[prov] = a
			}
			a.flows += c.Flows
			a.classified += c.ClassifiedFlows
			a.bytesDown += c.BytesDown
			a.up += c.BytesUp
			a.watch += c.WatchSeconds
		}
	}
	if sealed == 0 {
		t.Fatal("no sealed windows")
	}

	// The store saw the same windows the sink did (the seal stage writes
	// both), so a full-history query must reproduce the sums exactly.
	res, err := srv.Store().Query(time.Time{}, time.Time{}, 0, telemetry.GroupProvider)
	if err != nil {
		t.Fatal(err)
	}
	if res.SourceWindows != sealed {
		t.Fatalf("query scanned %d windows, sink sealed %d", res.SourceWindows, sealed)
	}
	got := map[string]*agg{}
	for _, sr := range res.Series {
		a := &agg{}
		for _, p := range sr.Points {
			a.flows += p.Flows
			a.classified += p.ClassifiedFlows
			a.bytesDown += p.BytesDown
			a.up += p.BytesUp
			a.watch += p.WatchSeconds
		}
		got[sr.Key] = a
	}
	if len(got) != len(want) {
		t.Fatalf("providers: query %v, sink %v", keysOf(got), keysOf(want))
	}
	for prov, w := range want {
		g := got[prov]
		if g == nil {
			t.Errorf("provider %s missing from query", prov)
			continue
		}
		if *g != *w {
			t.Errorf("provider %s: query %+v != sink %+v", prov, *g, *w)
		}
	}

	// Totals are invariant under step/group choice: a coarse total query
	// reports the same flow/byte sums.
	total, err := srv.Store().Query(time.Time{}, time.Time{}, time.Hour, telemetry.GroupTotal)
	if err != nil {
		t.Fatal(err)
	}
	var tf int
	var tb int64
	for _, p := range total.Series[0].Points {
		tf += p.Flows
		tb += p.BytesDown
	}
	var wf int
	var wb int64
	for _, a := range want {
		wf += a.flows
		wb += a.bytesDown
	}
	if tf != wf || tb != wb {
		t.Errorf("total query = %d flows / %d bytes, sink = %d / %d", tf, tb, wf, wb)
	}

}

func keysOf[V any](m map[string]*V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestWindowsAndQueryEndpoints exercises the HTTP parameter surface:
// ranges, steps, tiers, limits and error paths.
func TestWindowsAndQueryEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("bank training is slow")
	}
	srv, err := New(trainBank(t), synth(7, 20), Config{
		Addr:        "127.0.0.1:0",
		Shards:      2,
		WindowWidth: time.Minute,
		Store: telemetry.NewStore(telemetry.StoreConfig{
			Tiers: []time.Duration{5 * time.Minute},
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- srv.Run(ctx) }()
	defer func() {
		cancel()
		if err := <-runErr; err != nil {
			t.Fatalf("run: %v", err)
		}
	}()
	base := "http://" + srv.Addr()

	select {
	case <-srv.ReplayDone():
	case <-time.After(60 * time.Second):
		t.Fatal("replay did not finish")
	}
	// The shards fold evicted flows as they work through the last queued
	// batches, shortly after the source is exhausted; wait for the first
	// sealed windows to land.
	deadline := time.After(30 * time.Second)
	for srv.Store().Stats().Tiers[0].Windows == 0 {
		select {
		case <-deadline:
			t.Fatal("no windows stored after replay")
		default:
			time.Sleep(10 * time.Millisecond)
		}
	}

	// The rollup's open window reaches /stats, but no Snapshot (and so no
	// /metrics scrape) builds it.
	var st Stats
	getJSON(t, base+"/stats", &st)
	if st.Rollup.Current == nil || st.Rollup.Current.Flows == 0 {
		t.Errorf("/stats current_window = %+v, want the open window", st.Rollup.Current)
	}
	if cur := srv.Snapshot().Rollup.Current; cur != nil {
		t.Errorf("Snapshot built the current window: %+v", cur)
	}

	var wins struct {
		Count   int                 `json:"count"`
		Listed  int                 `json:"listed"`
		Windows []*telemetry.Window `json:"windows"`
	}
	getJSON(t, base+"/windows", &wins)
	if wins.Count == 0 || wins.Listed != len(wins.Windows) {
		t.Fatalf("windows = %+v", wins)
	}
	getJSON(t, base+"/windows?limit=1", &wins)
	if wins.Listed != 1 {
		t.Errorf("limit=1 listed %d", wins.Listed)
	}
	// The newest window wins under limit.
	newest := wins.Windows[0].Start
	getJSON(t, base+"/windows?limit=1000", &wins)
	if last := wins.Windows[len(wins.Windows)-1].Start; !last.Equal(newest) {
		t.Errorf("limit did not keep the newest window: %v vs %v", last, newest)
	}

	getJSON(t, base+"/windows?tier=5m", &wins)
	if wins.Count == 0 {
		t.Error("downsampled tier empty")
	}

	var res telemetry.QueryResult
	getJSON(t, base+"/query?by=platform&step=5m", &res)
	if res.StepSeconds != 300 || len(res.Series) == 0 {
		t.Errorf("platform query = %+v", res)
	}
	getJSON(t, base+"/query?last=5m", &res)
	// last= resolves against the newest stored window in trace time; the
	// store may still be absorbing late evictions, so pin the shape, not
	// the exact anchor.
	if res.Since.IsZero() {
		t.Error("last=5m did not resolve a since bound")
	}

	for _, bad := range []string{
		"/query?by=device",
		"/query?step=banana",
		"/query?since=notatime",
		"/query?last=5m&since=2023-07-07T12:00:00Z",
		"/windows?tier=7m",
		"/windows?limit=0",
	} {
		resp, err := http.Get(base + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s = %s, want 400", bad, resp.Status)
		}
	}
}

// TestMetricsMatchCatalog pins the /metrics exposition to the catalog the
// runbook drift test reads: catalog names are unique, every emitted series is
// in the catalog, and every catalog entry is emitted except the retrainer
// counters, which a daemon without a retrainer must leave out.
func TestMetricsMatchCatalog(t *testing.T) {
	if testing.Short() {
		t.Skip("bank training is slow")
	}
	srv, err := New(trainBank(t), synth(5, 2), Config{Addr: "127.0.0.1:0", Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- srv.Run(ctx) }()
	defer func() {
		cancel()
		<-runErr
	}()

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()

	emitted := map[string]bool{}
	re := regexp.MustCompile(`^(videoplat_[a-z_]+)(?:\{|\s)`)
	for _, line := range strings.Split(string(body), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if m := re.FindStringSubmatch(line); m != nil {
			emitted[m[1]] = true
		}
	}
	catalog := map[string]bool{}
	for _, m := range metricsCatalog {
		if catalog[m.name] {
			t.Errorf("catalog names %s twice", m.name)
		}
		catalog[m.name] = true
	}
	for name := range emitted {
		if !catalog[name] {
			t.Errorf("emitted series %s not in catalog", name)
		}
	}
	retrainerOnly := map[string]bool{
		"videoplat_model_retrains_total":   true,
		"videoplat_model_promotions_total": true,
		"videoplat_model_rejections_total": true,
	}
	for name := range catalog {
		if emitted[name] == retrainerOnly[name] {
			t.Errorf("catalog series %s: emitted = %v without a retrainer", name, emitted[name])
		}
	}
	for _, want := range []string{
		`videoplat_telemetry_store_windows{tier="raw"}`,
		`videoplat_telemetry_store_evicted_total{reason="count"}`,
		"videoplat_telemetry_sink_errors_total 0",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
