package telemetry

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"videoplat/internal/obs"
	"videoplat/internal/pipeline"
)

// Cell aggregates the flows of one rollup dimension value (a provider or a
// predicted platform) within one window.
type Cell struct {
	Flows           int `json:"flows"`
	ClassifiedFlows int `json:"classified_flows"`
	// AbstainedFlows counts flows the classifier ran on but rejected below
	// the confidence threshold (§4.1 open-set abstention), so per-provider
	// abstain rates survive re-aggregation: rate = abstained / (classified +
	// abstained).
	AbstainedFlows int     `json:"abstained_flows,omitempty"`
	WatchSeconds   float64 `json:"watch_seconds"`
	BytesDown      int64   `json:"bytes_down"`
	BytesUp        int64   `json:"bytes_up"`
	// MeanMbpsDown is the mean downstream bandwidth over the cell's watch
	// time; filled when the window is sealed.
	MeanMbpsDown float64 `json:"mean_mbps_down"`
	// PeakMbpsDown is the highest per-flow mean bandwidth seen.
	PeakMbpsDown float64 `json:"peak_mbps_down"`
	// Confidence digests the platform-model top probability of this cell's
	// classification attempts; nil when the classifier never ran here.
	Confidence *ConfidenceHist `json:"confidence,omitempty"`
}

// add folds one finalized flow into the cell. On the window-fold path,
// pinned allocation-free (modulo lazy one-time inits) by TestQualityFoldZeroAlloc.
func (c *Cell) add(rec *pipeline.FlowRecord) {
	c.Flows++
	if rec.Verdict.ClassifierRan() {
		if rec.Verdict == pipeline.VerdictClassified {
			c.ClassifiedFlows++
		} else {
			c.AbstainedFlows++
		}
		if c.Confidence == nil {
			c.Confidence = &ConfidenceHist{} // lazy one-time init per window cell
		}
		c.Confidence.Observe(rec.Prediction.PlatformConf)
	}
	c.WatchSeconds += rec.Duration().Seconds()
	c.BytesDown += rec.BytesDown
	c.BytesUp += rec.BytesUp
	if m := rec.MbpsDown(); m > c.PeakMbpsDown {
		c.PeakMbpsDown = m
	}
}

func (c *Cell) seal() {
	if c.WatchSeconds > 0 {
		c.MeanMbpsDown = float64(c.BytesDown) * 8 / 1e6 / c.WatchSeconds
	}
}

// Merge folds src into c. Additive fields sum, PeakMbpsDown takes the max,
// and MeanMbpsDown is recomputed from the merged totals — the watch-time-
// weighted mean, not an average of the two means.
func (c *Cell) Merge(src *Cell) {
	c.Flows += src.Flows
	c.ClassifiedFlows += src.ClassifiedFlows
	c.AbstainedFlows += src.AbstainedFlows
	if src.Confidence != nil {
		if c.Confidence == nil {
			c.Confidence = &ConfidenceHist{}
		}
		c.Confidence.Merge(src.Confidence)
	}
	c.WatchSeconds += src.WatchSeconds
	c.BytesDown += src.BytesDown
	c.BytesUp += src.BytesUp
	if src.PeakMbpsDown > c.PeakMbpsDown {
		c.PeakMbpsDown = src.PeakMbpsDown
	}
	c.seal()
}

// Window is one sealed tumbling window of flow aggregates: the unit the
// rollup engine retires to its sink. Flows are assigned to windows by their
// LastSeen timestamp (the moment the flow finalized).
type Window struct {
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`

	Flows           int `json:"flows"`
	ClassifiedFlows int `json:"classified_flows"`
	// LateFlows counts records whose LastSeen predated the window (e.g.
	// idle evictions surfacing after their window closed); they are folded
	// into this window rather than reopening a sealed one.
	LateFlows int `json:"late_flows,omitempty"`
	// ClassificationRate is ClassifiedFlows/Flows; filled when sealed.
	ClassificationRate float64 `json:"classification_rate"`

	ByProvider map[string]*Cell `json:"by_provider,omitempty"`
	ByPlatform map[string]*Cell `json:"by_platform,omitempty"`

	// ModelVersions counts the window's classified flows by the registry
	// version of the bank that classified them ("unversioned" for ad-hoc
	// banks). During a hot-swap a window legitimately spans two versions;
	// this keeps every sealed rollup attributable to the models that
	// produced it.
	ModelVersions map[string]int `json:"model_versions,omitempty"`

	// Latency digests the classification latency (FlowRecord.ClassifyNanos)
	// of the window's flows. Mergeable bucket counts, so downsampled tiers
	// and Query re-aggregation report the same quantiles a single wider
	// window would have; nil when no timed classification landed (e.g. the
	// pipeline ran without an observer).
	Latency *obs.Summary `json:"latency,omitempty"`

	// Quality digests decision quality: verdict counts, confidence/margin
	// histograms, drift score and shadow agreement. Non-nil for any window
	// with at least one flow.
	Quality *QualitySummary `json:"quality,omitempty"`
}

func (w *Window) add(rec *pipeline.FlowRecord) {
	w.Flows++
	classified := rec.Verdict == pipeline.VerdictClassified
	if classified {
		w.ClassifiedFlows++
	}
	prov := "unmatched" // never got far enough to identify a provider
	if rec.Verdict.ProviderKnown() {
		prov = rec.Provider.String()
	}
	cell := w.ByProvider[prov]
	if cell == nil {
		cell = &Cell{}
		w.ByProvider[prov] = cell
	}
	cell.add(rec)

	platform := "unclassified"
	if classified && rec.Prediction.Platform != "" {
		platform = rec.Prediction.Platform
	}
	cell = w.ByPlatform[platform]
	if cell == nil {
		cell = &Cell{}
		w.ByPlatform[platform] = cell
	}
	cell.add(rec)

	if rec.Verdict.ClassifierRan() {
		ver := rec.ModelVersion
		if ver == "" {
			ver = "unversioned"
		}
		if w.ModelVersions == nil {
			w.ModelVersions = map[string]int{}
		}
		w.ModelVersions[ver]++
	}

	if rec.ClassifyNanos > 0 {
		if w.Latency == nil {
			w.Latency = &obs.Summary{}
		}
		w.Latency.Observe(time.Duration(rec.ClassifyNanos))
	}

	if w.Quality == nil {
		w.Quality = &QualitySummary{}
	}
	w.Quality.add(rec)
}

func (w *Window) seal() {
	if w.Flows > 0 {
		w.ClassificationRate = float64(w.ClassifiedFlows) / float64(w.Flows)
	}
	for _, c := range w.ByProvider {
		c.seal()
	}
	for _, c := range w.ByPlatform {
		c.seal()
	}
}

// Clone returns a deep copy of w that shares no state with the original:
// Merge into an empty window aliases nothing of its source and recomputes
// the derived fields to the values they already hold, so it is the one
// place that knows how a window is copied.
func (w *Window) Clone() *Window {
	c := &Window{}
	c.Merge(w)
	return c
}

// Merge folds src into w: the time range extends to cover both windows,
// counters sum, per-key cells merge (watch-time-weighted means, max peaks),
// ModelVersions counts add, and ClassificationRate is recomputed from the
// merged totals. Merging sealed windows this way keeps every derived field
// consistent with what a single wider rollup window over the same flows
// would have produced — the invariant the store's downsampling tiers and
// Query re-aggregation both rely on. src is not modified.
func (w *Window) Merge(src *Window) {
	if w.Start.IsZero() || src.Start.Before(w.Start) {
		w.Start = src.Start
	}
	if src.End.After(w.End) {
		w.End = src.End
	}
	w.Flows += src.Flows
	w.ClassifiedFlows += src.ClassifiedFlows
	w.LateFlows += src.LateFlows
	if w.Flows > 0 {
		w.ClassificationRate = float64(w.ClassifiedFlows) / float64(w.Flows)
	}
	w.ByProvider = mergeCells(w.ByProvider, src.ByProvider)
	w.ByPlatform = mergeCells(w.ByPlatform, src.ByPlatform)
	if len(src.ModelVersions) > 0 {
		if w.ModelVersions == nil {
			w.ModelVersions = make(map[string]int, len(src.ModelVersions))
		}
		for k, v := range src.ModelVersions {
			w.ModelVersions[k] += v
		}
	}
	if src.Latency != nil {
		if w.Latency == nil {
			w.Latency = &obs.Summary{}
		}
		w.Latency.Merge(src.Latency)
	}
	if src.Quality != nil {
		if w.Quality == nil {
			w.Quality = &QualitySummary{}
		}
		w.Quality.Merge(src.Quality)
	}
}

// mergeCells folds src's cells into dst by key, allocating dst (and copies
// of src's cells) as needed; src cells are never aliased.
func mergeCells(dst, src map[string]*Cell) map[string]*Cell {
	if len(src) == 0 {
		return dst
	}
	if dst == nil {
		dst = make(map[string]*Cell, len(src))
	}
	for k, c := range src {
		d := dst[k]
		if d == nil {
			d = &Cell{}
			dst[k] = d
		}
		d.Merge(c)
	}
	return dst
}

// Sink receives sealed windows. WriteWindow may be called from the
// goroutine driving Rollup.Add; implementations that share state with other
// goroutines must synchronize internally.
type Sink interface {
	WriteWindow(w *Window) error
}

// MultiSink fans each sealed window out to every sink in order, e.g. a
// queryable Store plus a JSONL archive. All sinks are offered every window
// even when an earlier one fails; the errors are joined. The window pointer
// is shared across sinks, so sinks that retain windows (the Store) must
// copy rather than mutate.
func MultiSink(sinks ...Sink) Sink { return multiSink(sinks) }

type multiSink []Sink

func (m multiSink) WriteWindow(w *Window) error {
	var errs []error
	for _, s := range m {
		if err := s.WriteWindow(w); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// JSONLSink writes one JSON object per sealed window, newline-delimited —
// the flat-file stand-in for the paper deployment's PostgreSQL rollups.
type JSONLSink struct {
	mu  sync.Mutex
	enc *json.Encoder
	n   int
}

// NewJSONLSink returns a Sink writing to w.
func NewJSONLSink(w io.Writer) *JSONLSink { return &JSONLSink{enc: json.NewEncoder(w)} }

// WriteWindow encodes one window as a JSON line.
func (s *JSONLSink) WriteWindow(w *Window) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.enc.Encode(w); err != nil {
		return fmt.Errorf("telemetry: jsonl sink: %w", err)
	}
	s.n++
	return nil
}

// Windows reports how many windows have been written.
func (s *JSONLSink) Windows() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Rollup maintains tumbling time windows of per-provider and per-platform
// aggregates over finalized flow records, sealing and retiring each window
// to the sink as flow time crosses the window boundary. Windows are aligned
// to multiples of the width. Time is record-supplied (LastSeen), so replay
// and live operation roll up identically.
//
// Rollup is safe for concurrent use.
type Rollup struct {
	mu       sync.Mutex
	width    time.Duration
	sink     Sink
	enrich   func(*Window)
	cur      *Window
	sealed   int
	sinkErr  error  // first failure, kept verbatim for /stats
	sinkErrs uint64 // every failure, for the sink-errors counter
}

// NewRollup returns a Rollup with the given window width (default 1 minute
// if non-positive) retiring sealed windows to sink (which may be nil to
// discard).
func NewRollup(width time.Duration, sink Sink) *Rollup {
	if width <= 0 {
		width = time.Minute
	}
	return &Rollup{width: width, sink: sink}
}

// Width returns the tumbling window width.
func (r *Rollup) Width() time.Duration { return r.width }

// SetEnrich installs a hook invoked with each window at seal time, just
// before the window is finalized and offered to the sink — the seam where
// the server stamps window-scoped gauges that no flow record carries (drift
// score, shadow agreement deltas). The hook runs with the rollup lock held:
// it must not call back into the Rollup (deadlock) and should be cheap.
// Call before the first Add; not synchronized against concurrent Adds.
func (r *Rollup) SetEnrich(fn func(*Window)) {
	r.mu.Lock()
	r.enrich = fn
	r.mu.Unlock()
}

// Add folds one finalized flow record into the rollup, sealing the current
// window first if rec.LastSeen has moved past its end. Records older than
// the current window are folded in as late flows.
func (r *Rollup) Add(rec *pipeline.FlowRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ts := rec.LastSeen
	if r.cur == nil {
		r.open(ts)
	}
	if !ts.Before(r.cur.End) {
		r.seal()
		r.open(ts) // skip empty gap windows rather than sealing them
	}
	if ts.Before(r.cur.Start) {
		r.cur.LateFlows++
	}
	r.cur.add(rec)
}

// Flush seals and retires the current window, if any. Call at shutdown so
// the trailing partial window reaches the sink.
func (r *Rollup) Flush() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cur != nil && r.cur.Flows > 0 {
		r.seal()
	}
	r.cur = nil
}

// Sealed reports how many windows have been sealed and offered to the sink.
func (r *Rollup) Sealed() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sealed
}

// Err returns the first sink write error, if any.
func (r *Rollup) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sinkErr
}

// SinkErrors reports how many WriteWindow calls have failed — every
// failure, not just the first one Err keeps. A sink that recovers (e.g.
// disk full, then space freed) leaves Err set but stops incrementing this
// counter, so operators can tell a transient failure from an ongoing one.
func (r *Rollup) SinkErrors() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sinkErrs
}

// Current returns a deep snapshot of the in-progress window, or nil if no
// record has arrived yet — the live view the /stats endpoint serves.
func (r *Rollup) Current() *Window {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.cur == nil {
		return nil
	}
	snap := r.cur.Clone()
	snap.seal()
	return snap
}

func (r *Rollup) open(ts time.Time) {
	start := ts.Truncate(r.width)
	if ts.Before(start) { // Truncate rounds toward zero; guard pre-epoch times
		start = start.Add(-r.width)
	}
	r.cur = &Window{
		Start:      start,
		End:        start.Add(r.width),
		ByProvider: map[string]*Cell{},
		ByPlatform: map[string]*Cell{},
	}
}

// seal finalizes cur and hands it to the sink; callers must hold mu and
// replace cur afterwards.
func (r *Rollup) seal() {
	if r.enrich != nil {
		r.enrich(r.cur)
	}
	r.cur.seal()
	r.sealed++
	if r.sink != nil {
		if err := r.sink.WriteWindow(r.cur); err != nil {
			r.sinkErrs++
			if r.sinkErr == nil {
				r.sinkErr = err
			}
		}
	}
}
