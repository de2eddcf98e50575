package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"videoplat/internal/obs"
	"videoplat/internal/telemetry"
)

// writeJSONBody encodes v without touching the status line, for handlers
// that already wrote a non-200 status.
func writeJSONBody(w io.Writer, v any) {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// handleReadyz is the readiness probe complementing /healthz's liveness: 200
// once a classifier bank is loaded and the replay/ingest machinery is
// running, 503 with the blocking reasons otherwise. Load balancers and
// orchestration route on this; /healthz only says the process is up.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	var reasons []string
	if s.sharded.Bank() == nil {
		reasons = append(reasons, "no classifier bank loaded")
	}
	if s.src == nil {
		reasons = append(reasons, "no replay/ingest source attached")
	}
	if !s.running.Load() {
		reasons = append(reasons, "ingest loop not started")
	}
	if len(reasons) > 0 {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		writeJSONBody(w, map[string]any{"status": "unready", "reasons": reasons})
		return
	}
	writeJSON(w, map[string]any{"status": "ready"})
}

// handleEvents serves the ops event journal: ?since=<seq> resumes after a
// previously seen sequence number, ?type= filters to one event type, and
// ?limit= caps the response to the newest N matches (default 100).
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var since uint64
	if v := q.Get("since"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			http.Error(w, "bad since (want an event seq)", http.StatusBadRequest)
			return
		}
		since = n
	}
	typ := obs.EventType(q.Get("type"))
	if typ != "" && !knownEventType(typ) {
		http.Error(w, fmt.Sprintf("unknown event type %q", typ), http.StatusBadRequest)
		return
	}
	limit, ok := parseLimit(w, r, 100)
	if !ok {
		return
	}
	events := s.journal.Events(since, typ, limit)
	if events == nil {
		events = []obs.Event{}
	}
	writeJSON(w, struct {
		Stats  obs.JournalStats `json:"stats"`
		Events []obs.Event      `json:"events"`
	}{Stats: s.journal.Stats(), Events: events})
}

func knownEventType(typ obs.EventType) bool {
	for _, t := range obs.EventTypes() {
		if t == typ {
			return true
		}
	}
	return false
}

// enrichWindow stamps window-scoped quality gauges into a sealing window:
// the drift monitor's current worst confidence drop and the shadow
// evaluator's agreement deltas since the previous window. Runs under the
// rollup lock (see Rollup.SetEnrich), so it must not call back into the
// rollup; the drift and retrainer reads take only their own locks/atomics.
func (s *Server) enrichWindow(w *telemetry.Window) {
	if s.cfg.Drift == nil && s.cfg.Retrainer == nil {
		return
	}
	quality := func() *telemetry.QualitySummary {
		if w.Quality == nil {
			w.Quality = &telemetry.QualitySummary{}
		}
		return w.Quality
	}
	if s.cfg.Drift != nil {
		var score float64
		for _, st := range s.cfg.Drift.Statuses() {
			if drop := st.BaselineMedian - st.RecentMedian; drop > score {
				score = drop
			}
		}
		if score > 0 {
			quality().DriftScore = score
		}
	}
	if s.cfg.Retrainer != nil {
		agreed, disagreed := s.cfg.Retrainer.ShadowCounts()
		// Cumulative totals can transiently dip during a live→resolved
		// handoff; clamp so deltas stay monotone and nothing double-counts.
		if agreed > s.lastShadowAgreed {
			quality().ShadowAgreed += agreed - s.lastShadowAgreed
			s.lastShadowAgreed = agreed
		}
		if disagreed > s.lastShadowDisagree {
			quality().ShadowDisagreed += disagreed - s.lastShadowDisagree
			s.lastShadowDisagree = disagreed
		}
	}
}

// sealHealthEvents journals pipeline-health regressions observed since the
// previous sealed window: telemetry sink write failures, store compactions,
// and capacity-pressure flow evictions. Called from the aggregate goroutine
// (and finishPipeline's tail) right after a window seals, so each event
// describes roughly one window's worth of trouble.
func (s *Server) sealHealthEvents() {
	if errs := s.rollup.SinkErrors(); errs > s.lastSinkErrs {
		s.journal.Record(obs.EventSinkError, "telemetry sink writes failed",
			"failures", strconv.FormatUint(errs-s.lastSinkErrs, 10),
			"total", strconv.FormatUint(errs, 10))
		s.lastSinkErrs = errs
	}
	if comp := s.store.Stats().Compactions; comp > s.lastCompactions {
		s.journal.Record(obs.EventStoreCompaction, "telemetry store compacted windows into coarser tiers",
			"buckets", strconv.FormatUint(comp-s.lastCompactions, 10),
			"total", strconv.FormatUint(comp, 10))
		s.lastCompactions = comp
	}
	if capEv := s.sharded.TableStats().EvictedCap; capEv > s.lastCapEvict {
		s.journal.Record(obs.EventEvictionPressure, "flow table evicted flows at capacity",
			"evicted", strconv.FormatUint(capEv-s.lastCapEvict, 10),
			"total", strconv.FormatUint(capEv, 10))
		s.lastCapEvict = capEv
	}
}
