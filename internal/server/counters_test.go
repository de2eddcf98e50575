package server

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"videoplat/internal/registry"
	"videoplat/internal/tracegen"
)

// TestLiveCountersAreTheVerdictCounters runs a finite replay, half of it
// adversarial so early classifications and abstains occur, and pins after
// shutdown that the live counters of /stats and /metrics are the shard
// verdict counters: they equal what the rollup saw record by record.
// While the daemon is up it also pins the one ?limit= parser on the four
// endpoints that take one.
func TestLiveCountersAreTheVerdictCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("bank training is slow")
	}
	src := NewSynthSource(3, 30)
	src.SetAdversarial(0.5)
	srv, err := New(trainBank(t), src, Config{
		Addr:         "127.0.0.1:0",
		Shards:       4,
		MaxFlows:     16, // small cap: most flows leave by eviction mid-run
		IdleTimeout:  45 * time.Second,
		ProviderHint: tracegen.ProviderOfAddr,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- srv.Run(ctx) }()

	for _, path := range []string{"/flows", "/trace", "/events", "/windows"} {
		for _, bad := range []string{"0", "-3", "ten"} {
			resp, err := http.Get("http://" + srv.Addr() + path + "?limit=" + bad)
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

	select {
	case <-srv.ReplayDone():
	case <-time.After(60 * time.Second):
		t.Fatal("replay did not finish")
	}
	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("run: %v", err)
	}

	st := srv.Snapshot()
	if st.ClassifiedFlows == 0 || st.Ingest.EarlyClassified == 0 {
		t.Fatalf("replay classified %d flows, %d of them early: nothing to compare",
			st.ClassifiedFlows, st.Ingest.EarlyClassified)
	}
	if got, want := st.ClassifiedFlows, st.FlowVerdicts["classified"]; got != want {
		t.Errorf("classified_flows = %d, flow_verdicts[classified] = %d", got, want)
	}
	if got, want := st.UnknownFlows, st.FlowVerdicts["abstained"]; got != want {
		t.Errorf("unknown_flows = %d, flow_verdicts[abstained] = %d", got, want)
	}
	var byProvider uint64
	for _, n := range st.ByProvider {
		byProvider += n
	}
	if byProvider != st.ClassifiedFlows {
		t.Errorf("classified_by_provider sums to %d, classified_flows = %d (%v)",
			byProvider, st.ClassifiedFlows, st.ByProvider)
	}

	rec := httptest.NewRecorder()
	srv.handleMetrics(rec, nil)
	want := "\nvideoplat_flows_classified_total " + strconv.FormatUint(st.ClassifiedFlows, 10) + "\n"
	if !strings.Contains(rec.Body.String(), want) {
		t.Errorf("/metrics lacks %q", want)
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
