package server

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"videoplat/internal/obs"
	"videoplat/internal/pipeline"
)

// startObservedServer runs a daemon over a finite synthetic replay with
// trace-everything sampling. An empty bank keeps it fast: classification
// errors still exercise every timed stage.
func startObservedServer(t *testing.T, cfg Config) (*Server, string, context.CancelFunc, chan error) {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	srv, err := New(&pipeline.Bank{}, synth(5, 40), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- srv.Run(ctx) }()
	return srv, "http://" + srv.Addr(), cancel, runErr
}

// TestObservabilityEndpoints drives a replay through an instrumented daemon
// and checks the full latency-observability surface: stage digests, trace
// counters, runtime/build/config echo and the live queue gauges in /stats,
// span snapshots in /trace, and the new series in /metrics.
func TestObservabilityEndpoints(t *testing.T) {
	srv, base, cancel, runErr := startObservedServer(t, Config{
		Shards:           2,
		MaxFlows:         4, // force cap evictions so the rollup stage runs live
		TraceSampleEvery: 1,
		EnablePprof:      true,
	})
	defer cancel()
	<-srv.ReplayDone()

	// Poll until the async eviction path has committed rollup-stage samples.
	var st Stats
	deadline := time.Now().Add(10 * time.Second)
	for {
		getJSON(t, base+"/stats", &st)
		byStage := map[string]obs.StageStats{}
		for _, ls := range st.Latency {
			byStage[ls.Stage] = ls
		}
		if byStage["decode"].Count > 0 && byStage["queue_wait"].Count > 0 &&
			byStage["assembly"].Count > 0 && byStage["rollup"].Count > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stages never collected samples: %+v", st.Latency)
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, ls := range st.Latency {
		if ls.Count > 0 && (ls.P50Ms < 0 || ls.P99Ms < ls.P50Ms || ls.MaxMs < ls.P99Ms/1.04) {
			t.Errorf("stage %s quantiles out of order: %+v", ls.Stage, ls)
		}
	}

	if st.Trace.SampleEvery != 1 || st.Trace.Admitted == 0 || st.Trace.Finished == 0 {
		t.Errorf("trace counters = %+v, want sample_every 1 and nonzero spans", st.Trace)
	}
	if st.Trace.Offered < st.Trace.Admitted {
		t.Errorf("offered %d < admitted %d", st.Trace.Offered, st.Trace.Admitted)
	}
	if st.Runtime.Goroutines <= 0 || st.Runtime.HeapAllocBytes == 0 {
		t.Errorf("runtime gauges empty: %+v", st.Runtime)
	}
	if st.Build.GoVersion == "" {
		t.Error("build info missing go version")
	}
	if st.Config.Shards != 2 || !st.Config.PprofEnabled || st.Config.TraceSampleEvery != 1 {
		t.Errorf("config echo = %+v", st.Config)
	}
	if st.Config.WindowSeconds != 60 {
		t.Errorf("config window = %v, want default 60s", st.Config.WindowSeconds)
	}
	if len(st.Ingest.QueueDepths) != 2 || st.Ingest.QueueCapacity <= 0 {
		t.Errorf("queue gauges = depths %v cap %d", st.Ingest.QueueDepths, st.Ingest.QueueCapacity)
	}

	// /trace serves the span ring, newest first, with the limit honored.
	var snap obs.TraceSnapshot
	getJSON(t, base+"/trace?limit=5", &snap)
	if snap.Admitted == 0 || len(snap.Recent) == 0 {
		t.Fatalf("trace snapshot empty: admitted=%d recent=%d", snap.Admitted, len(snap.Recent))
	}
	if len(snap.Recent) > 5 {
		t.Errorf("limit ignored: %d recent spans", len(snap.Recent))
	}
	if len(snap.Slowest) == 0 {
		t.Error("no slowest-flow exemplars")
	}
	for i := 1; i < len(snap.Slowest); i++ {
		if snap.Slowest[i].TotalNS > snap.Slowest[i-1].TotalNS {
			t.Errorf("slowest not sorted: [%d]=%d > [%d]=%d",
				i, snap.Slowest[i].TotalNS, i-1, snap.Slowest[i-1].TotalNS)
		}
	}
	for _, sp := range snap.Recent {
		if sp.Verdict == "" {
			t.Errorf("span %d finished without a verdict", sp.ID)
		}
	}
	if resp, err := http.Get(base + "/trace?limit=0"); err != nil || resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad limit not rejected: %v %v", resp.Status, err)
	} else {
		resp.Body.Close()
	}

	// /metrics exposes the new series.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	exposition := string(body)
	for _, want := range []string{
		`videoplat_stage_latency_seconds{stage="decode",quantile="0.99"}`,
		`videoplat_stage_latency_samples_total{stage="rollup"}`,
		`videoplat_shard_queue_depth{shard="0"}`,
		`videoplat_shard_queue_depth{shard="1"}`,
		`videoplat_trace_spans_total{event="finished"}`,
		"videoplat_goroutines",
		"videoplat_heap_alloc_bytes",
		"videoplat_gc_cycles_total",
		"videoplat_uptime_seconds",
		"videoplat_build_info{go_version=",
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}

	// pprof is enabled: the index and a named profile both serve.
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/goroutine?debug=1"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s = %s with pprof enabled", path, resp.Status)
		}
	}

	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestPprofDisabledByDefault pins that the profiling surface 404s unless the
// operator opted in.
func TestPprofDisabledByDefault(t *testing.T) {
	srv, base, cancel, runErr := startObservedServer(t, Config{Shards: 1})
	defer cancel()
	<-srv.ReplayDone()

	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s = %s without -pprof, want 404", path, resp.Status)
		}
	}

	// Tracing still runs at its default rate and /trace still serves.
	var snap obs.TraceSnapshot
	getJSON(t, base+"/trace", &snap)
	if snap.SampleEvery != 256 {
		t.Errorf("default sample rate = %d, want 256", snap.SampleEvery)
	}
	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("run: %v", err)
	}
}
