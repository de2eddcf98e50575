package server

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"videoplat/internal/fingerprint"
	"videoplat/internal/pipeline"
	"videoplat/internal/registry"
	"videoplat/internal/telemetry"
	"videoplat/internal/tracegen"
)

// windowTotals is a telemetry.Sink summing the sealed windows' flows and
// quality verdicts.
type windowTotals struct {
	mu       sync.Mutex
	flows    uint64
	verdicts map[string]uint64
}

func (l *windowTotals) WriteWindow(w *telemetry.Window) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.flows += uint64(w.Flows)
	if l.verdicts == nil {
		l.verdicts = map[string]uint64{}
	}
	if w.Quality != nil {
		for v, n := range w.Quality.Verdicts {
			l.verdicts[v] += n
		}
	}
	return nil
}

// totals reads the sums once the daemon has shut down.
func (l *windowTotals) totals() (flows uint64, verdicts map[string]uint64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flows, l.verdicts
}

func sum(m map[string]uint64) (n uint64) {
	for _, v := range m {
		n += v
	}
	return n
}

// counterReadings flattens the monotonic counters of a /stats document.
func counterReadings(st *Stats) map[string]uint64 {
	out := map[string]uint64{
		"replay.packets":           st.Replay.Packets,
		"flow_table.inserted":      st.FlowTable.Inserted,
		"flow_table.evicted_idle":  st.FlowTable.EvictedIdle,
		"flow_table.evicted_cap":   st.FlowTable.EvictedCap,
		"flow_table.evicted_drain": st.FlowTable.EvictedDrain,
		"flow_table.rekeyed":       st.FlowTable.Rekeyed,
		"ingest.migrations":        st.Ingest.Migrations,
		"ingest.early_classified":  st.Ingest.EarlyClassified,
		"finalized_flows":          st.FinalizedFlows,
	}
	for v, n := range st.FlowVerdicts {
		out["flow_verdicts."+v] = n
	}
	for p, n := range st.ByProvider {
		out["classified_by_provider."+p] = n
	}
	return out
}

// TestLiveCountersAreTheVerdictCounters runs a paced finite replay, half of
// it adversarial so early classifications and abstains occur, and checks
// the counters of /stats at every scrape while it runs: no flow is counted
// decided before it was inserted, no provider split outruns the classified
// count, no counter goes down, and every evicted flow is already in a window
// but for at most one in flight per shard (the shard that evicts a flow folds
// it before its next packet). After shutdown every inserted flow has
// been decided and rolled up exactly once, so the verdict counters, the
// table and the sealed windows agree exactly. While the daemon is up it also
// pins the one ?limit= parser on the four endpoints that take one.
func TestLiveCountersAreTheVerdictCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("bank training is slow")
	}
	const shards = 4
	src := tracegen.NewStream(tracegen.StreamConfig{Seed: 3, Sessions: 30, Adversarial: 0.5})
	sink := &windowTotals{}
	srv, err := New(trainBank(t), src, Config{
		Addr:         "127.0.0.1:0",
		Shards:       shards,
		MaxFlows:     16, // small cap: most flows leave by eviction mid-run
		IdleTimeout:  45 * time.Second,
		Rate:         4000, // a second or so of replay to scrape during
		ProviderHint: tracegen.ProviderOfAddr,
		Sink:         sink,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- srv.Run(ctx) }()
	base := "http://" + srv.Addr()

	for _, path := range []string{"/flows", "/trace", "/events", "/windows"} {
		for _, bad := range []string{"0", "-3", "ten"} {
			resp, err := http.Get(base + path + "?limit=" + bad)
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || string(body) != "bad limit\n" {
				t.Errorf("GET %s?limit=%s: %s %q, want 400 bad limit", path, bad, resp.Status, body)
			}
		}
	}

	check := func(st *Stats, prev map[string]uint64, when string) map[string]uint64 {
		t.Helper()
		// The evicted total is read first, the open window next (handleStats
		// builds it after the snapshot) and the sealed windows last: a seal in
		// between can count a window twice, never miss one.
		evicted := st.FlowTable.Evicted()
		var open uint64
		if cur := st.Rollup.Current; cur != nil {
			open = uint64(cur.Flows)
		}
		sealed, _ := sink.totals()
		if folded := open + sealed; folded+shards < evicted {
			t.Errorf("%s: %d flows evicted, %d folded into windows; want at most %d in flight",
				when, evicted, folded, shards)
		}
		if decided := sum(st.FlowVerdicts); decided > st.FlowTable.Inserted {
			t.Errorf("%s: %d flows decided, %d inserted", when, decided, st.FlowTable.Inserted)
		}
		if split := sum(st.ByProvider); split > st.FlowVerdicts["classified"] {
			t.Errorf("%s: classified_by_provider sums to %d, flow_verdicts[classified] = %d",
				when, split, st.FlowVerdicts["classified"])
		}
		now := counterReadings(st)
		for name, was := range prev {
			if now[name] < was {
				t.Errorf("%s: %s went from %d to %d", when, name, was, now[name])
			}
		}
		return now
	}
	var prev map[string]uint64
	scrapes := 0
	for done := false; !done; scrapes++ {
		select {
		case <-srv.ReplayDone():
			done = true // one last scrape of the finished replay
		case <-time.After(60 * time.Second):
			t.Fatal("replay did not finish")
		default:
		}
		var st Stats
		getJSON(t, base+"/stats", &st)
		prev = check(&st, prev, fmt.Sprintf("scrape %d", scrapes))
		time.Sleep(5 * time.Millisecond)
	}
	if scrapes < 5 {
		t.Errorf("only %d scrapes during the replay", scrapes)
	}
	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("run: %v", err)
	}

	st := srv.Snapshot()
	check(&st, prev, "after shutdown")
	if st.FlowVerdicts["classified"] == 0 || st.Ingest.EarlyClassified == 0 {
		t.Fatalf("replay decided %v, %d early: nothing to compare", st.FlowVerdicts, st.Ingest.EarlyClassified)
	}
	decided := sum(st.FlowVerdicts)
	windowFlows, windowVerdicts := sink.totals()
	if decided != st.FinalizedFlows || decided != st.FlowTable.Inserted || decided != windowFlows {
		t.Errorf("after shutdown: %d decided, %d finalized, %d inserted, %d in sealed windows; want all equal",
			decided, st.FinalizedFlows, st.FlowTable.Inserted, windowFlows)
	}
	if st.FlowTable.Active != 0 || st.FlowTable.Evicted() != st.FlowTable.Inserted {
		t.Errorf("after shutdown the table holds %+v, want every inserted flow evicted", st.FlowTable)
	}
	for _, v := range pipeline.VerdictNames() {
		if st.FlowVerdicts[v] != windowVerdicts[v] {
			t.Errorf("flow_verdicts[%s] = %d, sealed windows count %d", v, st.FlowVerdicts[v], windowVerdicts[v])
		}
	}
	if sum(st.ByProvider) != st.FlowVerdicts["classified"] {
		t.Errorf("classified_by_provider %v sums past or short of flow_verdicts[classified] = %d",
			st.ByProvider, st.FlowVerdicts["classified"])
	}

	rec := httptest.NewRecorder()
	srv.handleMetrics(rec, nil)
	want := fmt.Sprintf("\nvideoplat_flow_verdicts_total{verdict=\"classified\"} %d\n", st.FlowVerdicts["classified"])
	if !strings.Contains(rec.Body.String(), want) {
		t.Errorf("/metrics lacks %q", want)
	}
}

// TestAbstainsKeepTheirVerdictAndNoProvider replays, with no provider hint,
// a Netflix flow whose hello is encrypted (ECH) and a QUIC 0-RTT resumption
// cut before its first short header. The ECH flow abstains on its hello;
// the 0-RTT one is still undecided when the daemon shuts down, and shutdown
// must finalize it the way idle eviction would, as abstained-0rtt. Neither
// names a provider: /flows shows none, and /query files both under
// unmatched (not under YouTube, Provider's zero value).
func TestAbstainsKeepTheirVerdictAndNoProvider(t *testing.T) {
	// Both flows end well inside the idle timeout, so only shutdown can
	// finalize the resumption.
	g := tracegen.New(5)
	ech, err := g.Flow("windows_chrome", fingerprint.Netflix, fingerprint.TCP,
		tracegen.FlowSpec{Options: fingerprint.Options{ECH: true}, Duration: 20 * time.Second, PayloadFrames: 2})
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := g.Flow("android_chrome", fingerprint.YouTube, fingerprint.QUIC,
		tracegen.FlowSpec{Options: fingerprint.Options{ZeroRTT: true}, Duration: 20 * time.Second, PayloadFrames: 2})
	if err != nil {
		t.Fatal(err)
	}
	resumed.Frames = resumed.Frames[:3] // two 0-RTT packets and the server's flight

	sink := &windowTotals{}
	src := tracegen.Replay([]*tracegen.FlowTrace{ech, resumed})
	srv, err := New(&pipeline.Bank{}, src, Config{Addr: "127.0.0.1:0", Shards: 2, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- srv.Run(ctx) }()
	select {
	case <-srv.ReplayDone():
	case <-time.After(30 * time.Second):
		t.Fatal("replay did not finish")
	}
	var fl struct {
		Flows []flowSummary `json:"flows"`
	}
	getJSON(t, "http://"+srv.Addr()+"/flows?limit=10", &fl)
	live := map[string]int{}
	for _, row := range fl.Flows {
		live[row.Verdict]++
		if row.Provider != "" {
			t.Errorf("/flows row %s -> %s (%s) names provider %q", row.Src, row.Dst, row.Verdict, row.Provider)
		}
	}
	if len(fl.Flows) != 2 || live["abstained-ech"] != 1 || live["pending"] != 1 {
		t.Errorf("/flows verdicts = %v over %d rows, want one abstained-ech and one pending", live, len(fl.Flows))
	}
	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("run: %v", err)
	}

	rec := httptest.NewRecorder()
	srv.handleFlows(rec, httptest.NewRequest("GET", "/flows", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("/flows after shutdown: %d, want 503", rec.Code)
	}
	want := map[string]uint64{"abstained-ech": 1, "abstained-0rtt": 1}
	st := srv.Snapshot()
	_, windowVerdicts := sink.totals()
	for v, n := range want {
		if st.FlowVerdicts[v] != n || windowVerdicts[v] != n {
			t.Errorf("%s: flow_verdicts %d, sealed windows %d, want %d", v, st.FlowVerdicts[v], windowVerdicts[v], n)
		}
	}
	if sum(st.FlowVerdicts) != 2 || sum(windowVerdicts) != 2 {
		t.Errorf("flow_verdicts %v, sealed windows %v, want only %v", st.FlowVerdicts, windowVerdicts, want)
	}
	res, err := srv.Store().Query(time.Time{}, time.Time{}, 0, telemetry.GroupProvider)
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range res.Series {
		if sr.Key != "unmatched" {
			t.Errorf("/query?by=provider has a %q series: the abstained flows name no provider", sr.Key)
		}
	}
}

// TestRetrainerSeriesFollowTheRetrainer pins what replaced the catalog's
// conditional flag: the retrainer counters sample nothing without a
// retrainer and their value with one.
func TestRetrainerSeriesFollowTheRetrainer(t *testing.T) {
	with := &Stats{}
	with.Models.Retrainer = &registry.Status{Retrains: 3, Promotions: 2, Rejections: 1}
	want := map[string]string{
		"videoplat_model_retrains_total":   "3",
		"videoplat_model_promotions_total": "2",
		"videoplat_model_rejections_total": "1",
	}
	for _, m := range metricsCatalog {
		v, ok := want[m.name]
		if !ok {
			continue
		}
		if got := m.samples(&Stats{}); len(got) != 0 {
			t.Errorf("%s without a retrainer: %v, want no samples", m.name, got)
		}
		if got := m.samples(with); len(got) != 1 || got[0] != (sample{"", v}) {
			t.Errorf("%s with a retrainer: %v, want one sample of %s", m.name, got, v)
		}
		delete(want, m.name)
	}
	for name := range want {
		t.Errorf("catalog has no %s", name)
	}
}
