package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one sampled flow's lifecycle record: where it was processed, how
// long each stage took, and how it resolved. Stage durations are cumulative
// over the flow's whole life (a flow assembles its handshake across several
// frames), not per-frame.
type Span struct {
	// ID is the span's admission sequence number (1-based, monotonic).
	ID uint64 `json:"id"`
	// Flow is the canonical flow key in printable form.
	Flow string `json:"flow"`
	// Shard is the shard worker that owned the flow.
	Shard int `json:"shard"`
	// QueueDepth is the shard's inbox occupancy observed when the flow was
	// admitted on its shard — the back-pressure the flow was born into.
	QueueDepth int `json:"queue_depth"`
	// FirstPacket is the flow's first frame timestamp in trace time;
	// Admitted/Finished are wall-clock processing times.
	FirstPacket time.Time `json:"first_packet"`
	Admitted    time.Time `json:"admitted"`
	Finished    time.Time `json:"finished"`
	// Frames counts frames processed for the flow while the span was live.
	Frames int `json:"frames"`
	// QueueWaitNS/AssemblyNS/ClassifyNS are cumulative per-stage
	// nanoseconds; TotalNS is admission to finish, wall clock.
	QueueWaitNS int64 `json:"queue_wait_ns"`
	AssemblyNS  int64 `json:"assembly_ns"`
	ClassifyNS  int64 `json:"classify_ns"`
	TotalNS     int64 `json:"total_ns"`
	// SNI is the flow's server name, once seen.
	SNI string `json:"sni,omitempty"`
	// ModelVersion is the registry version of the bank that classified the
	// flow (empty if never classified).
	ModelVersion string `json:"model_version,omitempty"`
	// Verdict is the terminal outcome. A classified flow carries what the
	// confidence selector decided: its platform label ("android_chrome")
	// when composite, or the confident half ("android", "chrome") when
	// partial. Otherwise it is "unknown" (abstained), "not-video",
	// "no-handshake", "oversized", "error", "abstained-ech",
	// "abstained-0rtt", or "evicted".
	Verdict string `json:"verdict"`
	// Status is the §4.1 gate that decided a flow the classifier judged:
	// "composite", "partial" or "unknown". Empty when the classifier never
	// ran.
	Status string `json:"status,omitempty"`
}

// TracerConfig tunes a Tracer.
type TracerConfig struct {
	// SampleEvery admits every Nth flow (1 = every flow; default 256;
	// <0 disables sampling entirely).
	SampleEvery int
}

// What a Tracer retains, fixed rather than configured: /trace is read by a
// person, and a page of recent spans plus a handful of slow exemplars is
// what one reads. Which flows land here is SampleEvery's job; how many stay
// does not vary with the deployment.
const (
	traceRing    = 256 // finished spans in the recent-history ring
	traceSlowest = 16  // slowest-by-total-duration spans kept beside it
)

// Tracer samples flow lifecycles deterministically (every Nth admitted
// flow), pools span records so steady-state tracing does not allocate, and
// retains finished spans in a bounded ring plus a separate slowest-K set.
// Admit/Finish are safe from concurrent shard workers and no-ops on a nil
// receiver, so an untraced deployment passes a nil *Tracer straight through.
type Tracer struct {
	every int
	// ringCap and slowCap are traceRing and traceSlowest, held as fields so
	// an in-package test can shrink them before first use.
	ringCap int
	slowCap int

	seq      atomic.Uint64 // flows offered (drives sampling)
	admitted atomic.Uint64
	finished atomic.Uint64
	pool     sync.Pool

	mu      sync.Mutex
	ring    []Span // most recent last, up to ringCap
	slowest []Span // sorted by TotalNS descending, up to slowCap
}

// NewTracer returns a tracer with cfg's sampling rate (zero takes the
// default) retaining traceRing recent and traceSlowest slowest spans.
func NewTracer(cfg TracerConfig) *Tracer {
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = 256
	}
	t := &Tracer{every: cfg.SampleEvery, ringCap: traceRing, slowCap: traceSlowest}
	t.pool.New = func() any { return new(Span) }
	return t
}

// Admit offers one new flow to the sampler and returns a span if the flow is
// selected, nil otherwise (including on a nil tracer or non-positive sample
// rate). Selection is deterministic: the 1st, (N+1)th, (2N+1)th... offered
// flows are sampled. The returned span is pooled; callers must hand it back
// through Finish exactly once.
func (t *Tracer) Admit() *Span {
	if t == nil || t.every < 0 {
		return nil
	}
	n := t.seq.Add(1)
	if (n-1)%uint64(t.every) != 0 {
		return nil
	}
	sp := t.pool.Get().(*Span)
	*sp = Span{ID: t.admitted.Add(1), Admitted: time.Now()}
	return sp
}

// Finish stamps the span's end time, copies it into the ring and (if slow
// enough) the slowest-K set, and returns it to the pool. The span must not
// be used after Finish. Nil tracer or span is a no-op.
func (t *Tracer) Finish(sp *Span) {
	if t == nil || sp == nil {
		return
	}
	sp.Finished = time.Now()
	sp.TotalNS = sp.Finished.Sub(sp.Admitted).Nanoseconds()
	t.finished.Add(1)

	t.mu.Lock()
	if len(t.ring) == t.ringCap {
		copy(t.ring, t.ring[1:])
		t.ring[len(t.ring)-1] = *sp
	} else {
		t.ring = append(t.ring, *sp)
	}
	if len(t.slowest) < t.slowCap || sp.TotalNS > t.slowest[len(t.slowest)-1].TotalNS {
		if len(t.slowest) == t.slowCap {
			t.slowest = t.slowest[:len(t.slowest)-1]
		}
		i := sort.Search(len(t.slowest), func(i int) bool {
			return t.slowest[i].TotalNS < sp.TotalNS
		})
		t.slowest = append(t.slowest, Span{})
		copy(t.slowest[i+1:], t.slowest[i:])
		t.slowest[i] = *sp
	}
	t.mu.Unlock()

	*sp = Span{}
	t.pool.Put(sp)
}

// TraceSnapshot is the tracer's state as served by /trace.
type TraceSnapshot struct {
	// SampleEvery echoes the sampling rate (1-in-N).
	SampleEvery int `json:"sample_every"`
	// Offered/Admitted/Finished count flows seen by the sampler, spans
	// started, and spans completed.
	Offered  uint64 `json:"offered"`
	Admitted uint64 `json:"admitted"`
	Finished uint64 `json:"finished"`
	// Recent holds the most recently finished spans, newest first.
	Recent []Span `json:"recent"`
	// Slowest holds the slowest finished spans by total duration,
	// slowest first.
	Slowest []Span `json:"slowest"`
}

// Snapshot copies out tracer state. limit caps Recent (<=0 = the whole
// ring); Slowest is always complete. Nil tracer yields a zero snapshot.
func (t *Tracer) Snapshot(limit int) TraceSnapshot {
	if t == nil {
		return TraceSnapshot{}
	}
	snap := TraceSnapshot{
		SampleEvery: t.every,
		Offered:     t.seq.Load(),
		Admitted:    t.admitted.Load(),
		Finished:    t.finished.Load(),
	}
	t.mu.Lock()
	n := len(t.ring)
	if limit > 0 && limit < n {
		n = limit
	}
	snap.Recent = make([]Span, n)
	for i := 0; i < n; i++ { // newest first
		snap.Recent[i] = t.ring[len(t.ring)-1-i]
	}
	snap.Slowest = append([]Span(nil), t.slowest...)
	t.mu.Unlock()
	return snap
}
