package server

import (
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"videoplat/internal/telemetry"
)

// Store returns the telemetry window store backing /windows and /query —
// the same instance Config.Store supplied, or the server's default. It
// remains queryable after Run returns, so a caller can inspect a finished
// replay's history in-process.
func (s *Server) Store() *telemetry.Store { return s.store }

// handleWindows lists retained sealed windows: GET /windows with optional
// since/until (RFC 3339 or unix seconds, half-open on window Start),
// last (duration back from the newest stored window, trace time),
// tier (a downsampling width like 10m; default raw) and limit (newest
// windows win; default 100).
func (s *Server) handleWindows(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	since, until, err := timeRange(q, s.store)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var tierWidth time.Duration
	if v := q.Get("tier"); v != "" {
		tierWidth, err = time.ParseDuration(v)
		if err != nil || tierWidth <= 0 {
			http.Error(w, fmt.Sprintf("bad tier %q (want a duration like 10m)", v), http.StatusBadRequest)
			return
		}
	}
	limit, ok := parseLimit(w, r, 100)
	if !ok {
		return
	}

	// The store applies the limit (keeping the newest windows) and hands
	// out the sealed windows it retains, shared, not copied.
	wins, total, err := s.store.Windows(since, until, tierWidth, limit)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, struct {
		Count   int                 `json:"count"`
		Listed  int                 `json:"listed"`
		Windows []*telemetry.Window `json:"windows"`
	}{Count: total, Listed: len(wins), Windows: wins})
}

// handleQuery serves re-aggregated time series: GET /query with optional
// since/until/last (as in /windows), step (re-aggregation bucket width,
// default the rollup window width) and by (provider, platform or model;
// default one total series).
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	since, until, err := timeRange(q, s.store)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var step time.Duration
	if v := q.Get("step"); v != "" {
		step, err = time.ParseDuration(v)
		if err != nil || step <= 0 {
			http.Error(w, fmt.Sprintf("bad step %q (want a duration like 10m)", v), http.StatusBadRequest)
			return
		}
	}
	res, err := s.store.Query(since, until, step, q.Get("by"))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, res)
}

// timeRange resolves a request's since/until/last parameters. last is
// relative to the newest stored window's End — trace time, so it behaves
// identically for live traffic and historical replays — and is exclusive
// with since/until.
func timeRange(q url.Values, store *telemetry.Store) (since, until time.Time, err error) {
	if v := q.Get("last"); v != "" {
		if q.Get("since") != "" || q.Get("until") != "" {
			return since, until, fmt.Errorf("last is exclusive with since/until")
		}
		d, err := time.ParseDuration(v)
		if err != nil || d <= 0 {
			return since, until, fmt.Errorf("bad last %q (want a duration like 30m)", v)
		}
		if latest := store.Latest(); !latest.IsZero() {
			since = latest.Add(-d)
		}
		return since, until, nil
	}
	if since, err = parseTime(q.Get("since")); err != nil {
		return since, until, fmt.Errorf("bad since: %v", err)
	}
	if until, err = parseTime(q.Get("until")); err != nil {
		return since, until, fmt.Errorf("bad until: %v", err)
	}
	return since, until, nil
}

// parseTime accepts RFC 3339 timestamps or integer unix seconds ("" = zero
// time, i.e. unbounded).
func parseTime(v string) (time.Time, error) {
	if v == "" {
		return time.Time{}, nil
	}
	if ts, err := time.Parse(time.RFC3339, v); err == nil {
		return ts, nil
	}
	if secs, err := strconv.ParseInt(v, 10, 64); err == nil {
		return time.Unix(secs, 0).UTC(), nil
	}
	return time.Time{}, fmt.Errorf("%q is neither RFC 3339 nor unix seconds", v)
}
