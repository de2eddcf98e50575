package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"videoplat/internal/obs"
	"videoplat/internal/telemetry"
)

// TestReadyzLifecycle: /readyz refuses before the ingest loop starts and
// flips to 200 once the daemon is serving; /healthz stays a pure liveness
// probe throughout.
func TestReadyzLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("bank training is slow")
	}
	srv, err := New(trainBank(t), synth(3, 5), Config{Addr: "127.0.0.1:0", Shards: 1})
	if err != nil {
		t.Fatal(err)
	}

	// Before Run the process is alive but not ready.
	rr := httptest.NewRecorder()
	srv.handleReadyz(rr, nil)
	if rr.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz before Run = %d, want 503", rr.Code)
	}
	if !strings.Contains(rr.Body.String(), "ingest loop not started") {
		t.Fatalf("readyz body missing reason: %s", rr.Body.String())
	}

	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- srv.Run(ctx) }()
	base := "http://" + srv.Addr()

	deadline := time.After(30 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			if !strings.Contains(string(body), `"ready"`) {
				t.Fatalf("ready body = %s", body)
			}
			break
		}
		select {
		case <-deadline:
			t.Fatalf("never became ready: %d %s", resp.StatusCode, body)
		case <-time.After(10 * time.Millisecond):
		}
	}

	var health struct {
		Status string `json:"status"`
	}
	getJSON(t, base+"/healthz", &health)
	if health.Status != "ok" {
		t.Fatalf("healthz = %+v", health)
	}

	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("run: %v", err)
	}
}

// eventsDoc mirrors the /events response shape.
type eventsDoc struct {
	Stats  obs.JournalStats `json:"stats"`
	Events []obs.Event      `json:"events"`
}

// TestEventsEndpoint drives /events parameter handling and the journal's
// surfacing in /stats and /metrics against a live daemon.
func TestEventsEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("bank training is slow")
	}
	journal := obs.NewJournal(64, nil)
	srv, err := New(trainBank(t), synth(3, 5), Config{
		Addr: "127.0.0.1:0", Shards: 1, Journal: journal,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- srv.Run(ctx) }()
	base := "http://" + srv.Addr()

	journal.Record(obs.EventDriftTrigger, "confidence drop", "provider", "youtube")
	journal.Record(obs.EventShadowStart, "candidate under evaluation", "version", "v0002")
	journal.Record(obs.EventShadowVerdict, "promoted", "version", "v0002")

	var doc eventsDoc
	getJSON(t, base+"/events", &doc)
	if len(doc.Events) != 3 || doc.Stats.Total != 3 {
		t.Fatalf("events = %d entries, stats %+v", len(doc.Events), doc.Stats)
	}
	if doc.Events[0].Type != obs.EventDriftTrigger || doc.Events[0].Fields["provider"] != "youtube" {
		t.Fatalf("first event = %+v", doc.Events[0])
	}

	// since resumes after a seq; type narrows; limit keeps the newest.
	getJSON(t, base+"/events?since="+strconv.FormatUint(doc.Events[0].Seq, 10), &doc)
	if len(doc.Events) != 2 || doc.Events[0].Type != obs.EventShadowStart {
		t.Fatalf("since filter: %+v", doc.Events)
	}
	getJSON(t, base+"/events?type=shadow_verdict", &doc)
	if len(doc.Events) != 1 || doc.Events[0].Fields["version"] != "v0002" {
		t.Fatalf("type filter: %+v", doc.Events)
	}
	getJSON(t, base+"/events?limit=1", &doc)
	if len(doc.Events) != 1 || doc.Events[0].Type != obs.EventShadowVerdict {
		t.Fatalf("limit filter: %+v", doc.Events)
	}

	// Bad parameters are clean client errors.
	for _, q := range []string{"?since=abc", "?type=nonsense", "?limit=0"} {
		resp, err := http.Get(base + "/events" + q)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /events%s = %d, want 400", q, resp.StatusCode)
		}
	}

	// The journal and verdict counters surface in /stats and /metrics.
	var st Stats
	getJSON(t, base+"/stats", &st)
	if st.Events.Total != 3 || st.Events.ByType["drift_trigger"] != 1 {
		t.Fatalf("stats events = %+v", st.Events)
	}
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	exposition := string(body)
	for _, want := range []string{
		`videoplat_events_total{type="drift_trigger"} 1`,
		`videoplat_events_total{type="model_swap"} 0`,
		"videoplat_events_dropped_total 0",
		`videoplat_flow_verdicts_total{verdict="classified"}`,
	} {
		if !strings.Contains(exposition, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}

	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("run: %v", err)
	}
}

// flakySink fails every other window it is offered, starting with the
// first, and counts the failures.
type flakySink struct {
	mu            sync.Mutex
	writes, fails int
}

func (f *flakySink) WriteWindow(*telemetry.Window) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.writes++
	if f.writes%2 == 1 {
		f.fails++
		return errors.New("archive unavailable")
	}
	return nil
}

// TestSealJournalsHealthEvents pins the three health events a window seal
// journals, at one and at two shards: one sink_error per failed archive
// write, store_compaction buckets summing to the store's compactions, and
// eviction_pressure counts summing to the flow table's cap evictions.
func TestSealJournalsHealthEvents(t *testing.T) {
	if testing.Short() {
		t.Skip("bank training is slow")
	}
	bank := trainBank(t)
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			journal := obs.NewJournal(4096, nil)
			sink := &flakySink{}
			srv, err := New(bank, synth(3, 40), Config{
				Addr:        "127.0.0.1:0",
				Shards:      shards,
				MaxFlows:    4,
				WindowWidth: time.Minute,
				Sink:        sink,
				Store:       telemetry.NewStore(telemetry.StoreConfig{Tiers: []time.Duration{2 * time.Minute}}),
				Journal:     journal,
			})
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			runErr := make(chan error, 1)
			go func() { runErr <- srv.Run(ctx) }()
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

			sum := func(typ obs.EventType, field string) (events int, total uint64) {
				for _, ev := range journal.Events(0, typ, 4096) {
					events++
					n, err := strconv.ParseUint(ev.Fields[field], 10, 64)
					if field != "" && err != nil {
						t.Fatalf("%s event %+v: %v", typ, ev, err)
					}
					total += n
				}
				return events, total
			}

			sink.mu.Lock()
			writes, fails := sink.writes, sink.fails
			sink.mu.Unlock()
			if writes < 4 || writes != st.Rollup.Sealed {
				t.Fatalf("archive offered %d windows, rollup sealed %d", writes, st.Rollup.Sealed)
			}
			if n, _ := sum(obs.EventSinkError, ""); n != fails || st.Rollup.SinkErrors != uint64(fails) {
				t.Errorf("%d sink_error events, %d failed writes, /stats sink_errors %d", n, fails, st.Rollup.SinkErrors)
			}
			n, buckets := sum(obs.EventStoreCompaction, "buckets")
			if n == 0 || buckets != st.Rollup.Store.Compactions {
				t.Errorf("%d store_compaction events for %d buckets, store compactions %d", n, buckets, st.Rollup.Store.Compactions)
			}
			n, evicted := sum(obs.EventEvictionPressure, "evicted")
			if n == 0 || evicted != st.FlowTable.EvictedCap {
				t.Errorf("%d eviction_pressure events for %d flows, flow table evicted_cap %d", n, evicted, st.FlowTable.EvictedCap)
			}
		})
	}
}
