package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"

	"videoplat/internal/obs"
	"videoplat/internal/pipeline"
	"videoplat/internal/telemetry"
	"videoplat/internal/tracegen"
)

// synth is the synthetic session stream of n sessions (n <= 0: unlimited),
// what vpserve -synth n -seed seed replays.
func synth(seed uint64, n int) *tracegen.Stream {
	return tracegen.NewStream(tracegen.StreamConfig{Seed: seed, Sessions: n})
}

// replayResult is what a finished in-process replay leaves behind: the
// documents the daemon serves, read after shutdown, the ops journal and
// the JSONL archive of every sealed window.
type replayResult struct {
	Stats   Stats
	Windows []byte // the /windows body, every raw window listed
	Metrics string // the /metrics body
	Events  []obs.Event
	Archive []byte // one JSON window per line, in seal order
}

// replayInProcess runs a Server over a finite source through the ingest
// lifecycle Run runs, without an HTTP listener: startIngest, a wait for the
// replay to reach the source's end, then its stop, which drains the shards
// and flushes the rollup. cfg.Sink, if set, gets
// every sealed window after the archive. watch, if non-nil, gets the server
// before the replay starts, for a test that samples it while it runs.
func replayInProcess(t *testing.T, bank *pipeline.Bank, src Source, cfg Config, watch func(*Server)) replayResult {
	t.Helper()
	var archive bytes.Buffer
	sinks := []telemetry.Sink{telemetry.NewJSONLSink(&archive)}
	if cfg.Sink != nil {
		sinks = append(sinks, cfg.Sink)
	}
	cfg.Sink = telemetry.MultiSink(sinks...)
	s := newServer(bank, src, cfg)
	if watch != nil {
		watch(s)
	}

	stop := s.startIngest(context.Background())
	<-s.replayDone
	stop()
	if err := s.replayErr; err != nil {
		t.Fatalf("replay: %v", err)
	}

	res := replayResult{Events: s.journal.Events(0, "", 0), Archive: archive.Bytes()}
	get := func(target string) []byte {
		rec := httptest.NewRecorder()
		s.httpSrv.Handler.ServeHTTP(rec, httptest.NewRequest("GET", target, nil))
		if rec.Code != 200 {
			t.Fatalf("GET %s: %d %s", target, rec.Code, rec.Body)
		}
		return rec.Body.Bytes()
	}
	if err := json.Unmarshal(get("/stats"), &res.Stats); err != nil {
		t.Fatalf("/stats: %v", err)
	}
	res.Windows = get("/windows?limit=1000000")
	res.Metrics = string(get("/metrics"))
	return res
}
