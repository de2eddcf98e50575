package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"videoplat/internal/drift"
	"videoplat/internal/obs"
	"videoplat/internal/telemetry"
)

// writeJSONBody encodes v indented without touching the headers or the
// status line, for handlers that already wrote a non-200 status; writeJSON
// is it with the JSON content type.
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

// sealStage is the server as its rollup's only sink: the one place a sealed
// window's side effects happen. The rollup calls WriteWindow under its lock,
// once per seal and in seal order, whichever shard worker (or shutdown's
// Flush) sealed the window, so the state kept between seals needs no lock of
// its own. Nothing here calls back into the rollup or waits on a shard.
type sealStage Server

// WriteWindow stamps the window with the serving bank's worst confidence
// drop and the shadow evaluator's agreement deltas since the previous seal,
// judging drift as it goes (each flagged classifier is journaled once per
// bank version and triggers the retrainer for that version, which coalesces
// the triggers and waits out its cooldown). It then writes the store and
// cfg.Sink, and journals what the seal saw: the archive's error, the store
// compactions since the previous seal, and the flows evicted at capacity
// whose last packet is in the window or in an earlier one no seal has
// counted. The archive's error is returned for the rollup's sink-error
// count.
func (stage *sealStage) WriteWindow(w *telemetry.Window) error {
	s := (*Server)(stage)
	quality := func() *telemetry.QualitySummary {
		if w.Quality == nil {
			w.Quality = &telemetry.QualitySummary{}
		}
		return w.Quality
	}
	if s.cfg.Drift != nil {
		var score float64
		for _, st := range s.servingDrift() {
			if drop := st.BaselineMedian - st.RecentMedian; drop > score {
				score = drop
			}
			if st.Drifting {
				s.judgeDrift(st)
			}
		}
		if score > 0 {
			quality().DriftScore = score
		}
	}
	if s.cfg.Retrainer != nil {
		// The totals never decrease: the deltas are the samples since the
		// previous seal.
		agreed, disagreed := s.cfg.Retrainer.ShadowCounts()
		if agreed != s.lastShadowAgreed || disagreed != s.lastShadowDisagree {
			q := quality()
			q.ShadowAgreed += agreed - s.lastShadowAgreed
			q.ShadowDisagreed += disagreed - s.lastShadowDisagree
			s.lastShadowAgreed, s.lastShadowDisagree = agreed, disagreed
		}
	}

	_ = s.store.WriteWindow(w) // in memory: never fails
	var err error
	if s.cfg.Sink != nil {
		if err = s.cfg.Sink.WriteWindow(w); err != nil {
			s.journal.Record(obs.EventSinkError, "telemetry sink write failed",
				"error", err.Error(),
				"window_start", w.Start.UTC().Format(time.RFC3339))
		}
	}
	if comp := s.store.Stats().Compactions; comp > s.lastCompactions {
		s.journal.Record(obs.EventStoreCompaction, "telemetry store compacted windows into coarser tiers",
			"buckets", strconv.FormatUint(comp-s.lastCompactions, 10),
			"total", strconv.FormatUint(comp, 10))
		s.lastCompactions = comp
	}
	if capEv := s.takeCapEvictions(w.Start); capEv > 0 {
		s.capJournaled += capEv
		s.journal.Record(obs.EventEvictionPressure, "flow table evicted flows at capacity",
			"evicted", strconv.FormatUint(capEv, 10),
			"total", strconv.FormatUint(s.capJournaled, 10))
	}
	return err
}

// takeCapEvictions removes and sums the capacity evictions counted for the
// window starting at start and every window before it: once it seals, no
// flow of theirs is still to come.
func (s *Server) takeCapEvictions(start time.Time) (n uint64) {
	s.capMu.Lock()
	defer s.capMu.Unlock()
	for at, c := range s.capEvicted {
		if at <= start.UnixNano() {
			n += c
			delete(s.capEvicted, at)
		}
	}
	return n
}

// judgeDrift acts on one flagged classifier at a window seal: it journals
// drift_trigger the first time the classifier is flagged under this bank
// version, and triggers the retrainer for that version every time.
func (s *Server) judgeDrift(st drift.Status) {
	name := st.Provider.String() + "/" + st.Transport.String()
	if v, ok := s.driftJournaled[name]; !ok || v != st.Version {
		s.driftJournaled[name] = st.Version
		s.journal.Record(obs.EventDriftTrigger, st.Reason,
			"provider", st.Provider.String(),
			"transport", st.Transport.String(),
			"version", st.Version)
	}
	if s.cfg.Retrainer != nil {
		s.cfg.Retrainer.Trigger(st.Version, "drift: "+name+" "+st.Reason)
	}
}
