package obs

import (
	"context"
	"log/slog"
	"sync"
	"time"
)

// EventType classifies an ops journal entry. The values are a closed,
// documented vocabulary: /events filters on them, /metrics counts them, and
// docs/OPERATIONS.md lists them — add here and there together.
type EventType string

// Journal event types.
const (
	// EventModelPromote: an operator promoted a bank version via the API.
	EventModelPromote EventType = "model_promote"
	// EventModelRollback: an operator rolled the registry back one version.
	EventModelRollback EventType = "model_rollback"
	// EventModelSwap: the serving pipeline hot-swapped to a new bank (fires
	// for operator promotes, rollbacks and shadow-gate promotions alike).
	EventModelSwap EventType = "model_swap"
	// EventDriftTrigger: a window seal found a classifier drifting, the
	// first time for that classifier under the serving bank version.
	EventDriftTrigger EventType = "drift_trigger"
	// EventShadowStart: a freshly retrained candidate bank entered shadow
	// evaluation against live flows.
	EventShadowStart EventType = "shadow_start"
	// EventShadowVerdict: a shadow evaluation completed (promoted or
	// rejected — the event's fields say which and why).
	EventShadowVerdict EventType = "shadow_verdict"
	// EventRetrainError: background retraining failed.
	EventRetrainError EventType = "retrain_error"
	// EventEvictionPressure: the flow table evicted flows at capacity (LRU
	// pressure, as opposed to benign idle expiry) since the last rollup
	// window sealed.
	EventEvictionPressure EventType = "eviction_pressure"
	// EventSinkError: telemetry window writes to a sink failed.
	EventSinkError EventType = "sink_error"
	// EventStoreCompaction: the telemetry store sealed downsampled buckets
	// into its coarser tiers since the last rollup window sealed.
	EventStoreCompaction EventType = "store_compaction"
	// EventArchiveTruncated: at startup, a torn (unterminated) last line of
	// the telemetry archive was cut off; the bytes field says how much.
	EventArchiveTruncated EventType = "archive_truncated"
)

// EventTypes lists every event type a Journal can record, in a stable order
// (for metrics emission and docs).
func EventTypes() []EventType {
	return []EventType{
		EventModelPromote,
		EventModelRollback,
		EventModelSwap,
		EventDriftTrigger,
		EventShadowStart,
		EventShadowVerdict,
		EventRetrainError,
		EventEvictionPressure,
		EventSinkError,
		EventStoreCompaction,
		EventArchiveTruncated,
	}
}

// Event is one ops journal entry: a typed, timestamped record of a
// model-lifecycle or pipeline-health state change, with small structured
// fields instead of a parsed-from-text payload.
type Event struct {
	// Seq is the journal-assigned monotonic sequence number (first event is
	// 1). Clients resume with GET /events?since=<last seen Seq>.
	Seq     uint64    `json:"seq"`
	Time    time.Time `json:"time"`
	Type    EventType `json:"type"`
	Message string    `json:"message"`
	// Fields carries event-specific attributes (model version, drift reason,
	// counts) as strings, mirroring the slog attributes emitted for the
	// event.
	Fields map[string]string `json:"fields,omitempty"`
}

// DefaultJournalCapacity bounds a Journal when the caller passes a
// non-positive capacity.
const DefaultJournalCapacity = 1024

// Journal is a bounded in-memory ring of typed ops events. Recording never
// blocks and never grows past the capacity — when full, the oldest events
// are dropped (and counted). All methods are safe for concurrent use, and
// safe on a nil *Journal (records are discarded), so instrumented code does
// not need journal-presence checks.
type Journal struct {
	mu     sync.Mutex
	ring   []Event // fixed capacity, filled circularly
	next   int     // ring index the next event lands in
	size   int     // events currently retained
	seq    uint64  // total events ever recorded
	counts map[EventType]uint64
	logger *slog.Logger
}

// NewJournal returns a Journal retaining up to capacity events
// (DefaultJournalCapacity when capacity <= 0). A non-nil logger mirrors
// every event as a structured log line, giving daemon logs and the journal
// one vocabulary.
func NewJournal(capacity int, logger *slog.Logger) *Journal {
	if capacity <= 0 {
		capacity = DefaultJournalCapacity
	}
	return &Journal{
		ring:   make([]Event, capacity),
		counts: make(map[EventType]uint64),
		logger: logger,
	}
}

// Record appends one event. kv lists alternating field keys and values (a
// trailing key with no value is dropped). Nil-journal safe.
func (j *Journal) Record(typ EventType, msg string, kv ...string) {
	if j == nil {
		return
	}
	var fields map[string]string
	if len(kv) >= 2 {
		fields = make(map[string]string, len(kv)/2)
		for i := 0; i+1 < len(kv); i += 2 {
			fields[kv[i]] = kv[i+1]
		}
	}
	ev := Event{Time: time.Now(), Type: typ, Message: msg, Fields: fields}

	j.mu.Lock()
	j.seq++
	ev.Seq = j.seq
	j.ring[j.next] = ev
	j.next = (j.next + 1) % len(j.ring)
	if j.size < len(j.ring) {
		j.size++
	}
	j.counts[typ]++
	logger := j.logger
	j.mu.Unlock()

	if logger != nil {
		attrs := make([]slog.Attr, 0, len(kv)/2+2)
		attrs = append(attrs,
			slog.String("event", string(typ)),
			slog.Uint64("seq", ev.Seq))
		for i := 0; i+1 < len(kv); i += 2 {
			attrs = append(attrs, slog.String(kv[i], kv[i+1]))
		}
		logger.LogAttrs(context.Background(), slog.LevelInfo, msg, attrs...)
	}
}

// Events returns retained events with Seq > since, oldest first. A non-empty
// typ keeps only that event type. limit > 0 keeps the newest limit matches
// (so a capped request still reports the most recent state changes).
// Nil-journal safe (returns nil).
func (j *Journal) Events(since uint64, typ EventType, limit int) []Event {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]Event, 0, j.size)
	start := j.next - j.size
	if start < 0 {
		start += len(j.ring)
	}
	for i := 0; i < j.size; i++ {
		ev := j.ring[(start+i)%len(j.ring)]
		if ev.Seq <= since {
			continue
		}
		if typ != "" && ev.Type != typ {
			continue
		}
		out = append(out, ev)
	}
	if limit > 0 && len(out) > limit {
		out = out[len(out)-limit:]
	}
	return out
}

// JournalStats summarizes the journal for /stats and /metrics.
type JournalStats struct {
	// Total is how many events have ever been recorded.
	Total uint64 `json:"total"`
	// Retained is how many are still in the ring; Dropped = Total − Retained
	// aged out of the bounded ring.
	Retained int    `json:"retained"`
	Dropped  uint64 `json:"dropped"`
	// ByType counts every recorded event by type (dropped events included —
	// the counters are monotonic even though the ring is not).
	ByType map[string]uint64 `json:"by_type,omitempty"`
}

// Stats snapshots the journal counters. Nil-journal safe (zero stats).
func (j *Journal) Stats() JournalStats {
	if j == nil {
		return JournalStats{}
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JournalStats{
		Total:    j.seq,
		Retained: j.size,
		Dropped:  j.seq - uint64(j.size),
	}
	if len(j.counts) > 0 {
		st.ByType = make(map[string]uint64, len(j.counts))
		for k, v := range j.counts {
			st.ByType[string(k)] = v
		}
	}
	return st
}
