package telemetry

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"videoplat/internal/fingerprint"
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
// The open window is folded in a dense form the Rollup owns and reuses (see
// openWindow); each seal, and each Current snapshot, builds a newly
// allocated Window from it.
//
// Rollup is safe for concurrent use.
type Rollup struct {
	mu       sync.Mutex
	width    time.Duration
	sink     Sink
	enrich   func(*Window)
	cur      openWindow // the in-progress window while active
	active   bool
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
// window first if rec.LastSeen has moved past its end, and reports whether
// it sealed one. Records older than the current window are folded in as
// late flows.
func (r *Rollup) Add(rec *pipeline.FlowRecord) (sealed bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ts := rec.LastSeen
	if !r.active {
		r.open(ts)
	}
	if !ts.Before(r.cur.end) {
		r.seal()
		r.open(ts) // skip empty gap windows rather than sealing them
		sealed = true
	}
	r.cur.add(rec, ts.Before(r.cur.start))
	return sealed
}

// Flush seals and retires the current window, if any. Call at shutdown so
// the trailing partial window reaches the sink.
func (r *Rollup) Flush() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.active && r.cur.flows > 0 {
		r.seal()
	}
	r.active = false
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
	if !r.active {
		return nil
	}
	snap := r.cur.window()
	snap.seal()
	return snap
}

func (r *Rollup) open(ts time.Time) {
	start := bucketStart(ts, r.width)
	r.cur.reset(start, start.Add(r.width))
	r.active = true
}

// seal builds the current window, finalizes it and hands it to the sink;
// callers must hold mu and open or deactivate cur afterwards.
func (r *Rollup) seal() {
	w := r.cur.window()
	if r.enrich != nil {
		r.enrich(w)
	}
	w.seal()
	r.sealed++
	if r.sink != nil {
		if err := r.sink.WriteWindow(w); err != nil {
			r.sinkErrs++
			if r.sinkErr == nil {
				r.sinkErr = err
			}
		}
	}
}

// openWindow is a Window being folded, in the shape the per-record fold
// wants: provider cells indexed by Provider, platform cells and model
// versions in short slices searched linearly (the pipeline interns platform
// labels, so a match is usually a pointer compare), and verdicts counted by
// value. The Rollup resets one for each window and keeps its storage, so a
// warm fold allocates nothing; window builds the map-shaped Window that
// sinks and /stats see, byte for byte what folding into the maps directly
// would give.
type openWindow struct {
	start, end              time.Time
	flows, classified, late int

	providers [fingerprint.NumProviders + 1]openCell // the last is "unmatched"
	// oddProviders holds Provider values past NumProviders, by name. The
	// pipeline never sets one; a hand-built record might.
	oddProviders []namedCell
	platforms    []namedCell
	versions     []versionCount

	verdicts     [pipeline.NumVerdicts]uint64
	latency      obs.Summary
	conf, margin ConfidenceHist
}

// openCell is a Cell being folded. Its Confidence stays nil: the digest
// accumulates in conf, so resetting the cell frees nothing.
type openCell struct {
	Cell
	conf ConfidenceHist
}

type namedCell struct {
	name string
	openCell
}

// versionCount counts classifier runs by ModelVersion ("" until window
// names it "unversioned").
type versionCount struct {
	version string
	n       int
}

// unmatched is the provider cell of flows that never got far enough to
// identify a provider.
const unmatched = fingerprint.NumProviders

func (o *openWindow) reset(start, end time.Time) {
	o.start, o.end = start, end
	o.flows, o.classified, o.late = 0, 0, 0
	o.providers = [fingerprint.NumProviders + 1]openCell{}
	o.oddProviders = o.oddProviders[:0]
	o.platforms = o.platforms[:0]
	o.versions = o.versions[:0]
	o.verdicts = [pipeline.NumVerdicts]uint64{}
	o.latency.Reset()
	o.conf, o.margin = ConfidenceHist{}, ConfidenceHist{}
}

// add folds one finalized flow into the window. Its duration, watch
// seconds and bandwidth are computed once and shared by both cells.
// Allocation-free once the window's cells exist, and after a reset too,
// pinned by TestQualityFoldZeroAlloc.
func (o *openWindow) add(rec *pipeline.FlowRecord, late bool) {
	o.flows++
	if late {
		o.late++
	}
	classified := rec.Verdict == pipeline.VerdictClassified
	if classified {
		o.classified++
	}
	ran := rec.Verdict.ClassifierRan()
	secs := rec.Duration().Seconds()
	var mbps float64 // rec.MbpsDown()
	if secs > 0 {
		mbps = float64(rec.BytesDown) * 8 / 1e6 / secs
	}

	var prov *openCell
	switch {
	case !rec.Verdict.ProviderKnown():
		prov = &o.providers[unmatched]
	case int(rec.Provider) < fingerprint.NumProviders:
		prov = &o.providers[rec.Provider]
	default:
		prov = findCell(&o.oddProviders, rec.Provider.String())
	}
	prov.add(rec, ran, secs, mbps)
	platform := "unclassified"
	if classified && rec.Prediction.Platform != "" {
		platform = rec.Prediction.Platform
	}
	findCell(&o.platforms, platform).add(rec, ran, secs, mbps)

	if ran {
		o.countVersion(rec.ModelVersion)
		o.conf.Observe(rec.Prediction.PlatformConf)
		o.margin.Observe(rec.Prediction.PlatformMargin)
	}
	if rec.ClassifyNanos > 0 {
		o.latency.Observe(time.Duration(rec.ClassifyNanos))
	}
	v := rec.Verdict
	if int(v) >= pipeline.NumVerdicts {
		v = pipeline.VerdictPending // as Verdict.String names it
	}
	o.verdicts[v]++
}

func (c *openCell) add(rec *pipeline.FlowRecord, ran bool, secs, mbps float64) {
	c.Flows++
	if ran {
		if rec.Verdict == pipeline.VerdictClassified {
			c.ClassifiedFlows++
		} else {
			c.AbstainedFlows++
		}
		c.conf.Observe(rec.Prediction.PlatformConf)
	}
	c.WatchSeconds += secs
	c.BytesDown += rec.BytesDown
	c.BytesUp += rec.BytesUp
	if mbps > c.PeakMbpsDown {
		c.PeakMbpsDown = mbps
	}
}

// findCell returns the cell named name, appending an empty one if there is
// none.
func findCell(cells *[]namedCell, name string) *openCell {
	for i := range *cells {
		if (*cells)[i].name == name {
			return &(*cells)[i].openCell
		}
	}
	*cells = append(*cells, namedCell{name: name})
	return &(*cells)[len(*cells)-1].openCell
}

func (o *openWindow) countVersion(version string) {
	for i := range o.versions {
		if o.versions[i].version == version {
			o.versions[i].n++
			return
		}
	}
	o.versions = append(o.versions, versionCount{version: version, n: 1})
}

// window builds the map-shaped Window from o, sharing no state with it.
// The derived fields (rates, means) are left for Window.seal. A cell,
// summary or map is present exactly when a record put something in it: a
// cell's Confidence when the classifier ran on one of its flows,
// ModelVersions and the quality digests likewise, Latency when a timed
// classification landed, and Quality when the window holds a flow. The
// window's cells and confidence digests are each one allocation.
func (o *openWindow) window() *Window {
	w := &Window{Start: o.start, End: o.end, Flows: o.flows, ClassifiedFlows: o.classified, LateFlows: o.late}
	nprov := 0
	for i := range o.providers {
		if o.providers[i].Flows > 0 {
			nprov++
		}
	}
	ncells := nprov + len(o.oddProviders) + len(o.platforms)
	b := windowSlab{
		cells: make([]Cell, 0, ncells),
		hists: make([]ConfidenceHist, 0, ncells+2), // a digest per cell at most, plus the quality confidence and margin
	}

	w.ByProvider = make(map[string]*Cell, nprov+len(o.oddProviders))
	for i := range o.providers {
		if c := &o.providers[i]; c.Flows > 0 {
			name := "unmatched"
			if i != unmatched {
				name = fingerprint.Provider(i).String()
			}
			w.ByProvider[name] = b.cell(c)
		}
	}
	for i := range o.oddProviders {
		w.ByProvider[o.oddProviders[i].name] = b.cell(&o.oddProviders[i].openCell)
	}
	w.ByPlatform = make(map[string]*Cell, len(o.platforms))
	for i := range o.platforms {
		w.ByPlatform[o.platforms[i].name] = b.cell(&o.platforms[i].openCell)
	}

	if len(o.versions) > 0 {
		w.ModelVersions = make(map[string]int, len(o.versions))
		for _, v := range o.versions {
			name := v.version
			if name == "" {
				name = "unversioned"
			}
			w.ModelVersions[name] += v.n
		}
	}
	if o.latency.Count > 0 {
		w.Latency = &obs.Summary{}
		w.Latency.Merge(&o.latency)
	}
	if o.flows > 0 {
		w.Quality = &QualitySummary{Verdicts: map[string]uint64{}, Confidence: b.hist(&o.conf), Margin: b.hist(&o.margin)}
		for v, n := range o.verdicts {
			if n > 0 {
				w.Quality.Verdicts[pipeline.Verdict(v).String()] = n
			}
		}
	}
	return w
}

// windowSlab hands out a window's cells and confidence digests from one
// slice each, sized up front so that appending never moves them.
type windowSlab struct {
	cells []Cell
	hists []ConfidenceHist
}

func (b *windowSlab) cell(c *openCell) *Cell {
	b.cells = append(b.cells, c.Cell)
	out := &b.cells[len(b.cells)-1]
	out.Confidence = b.hist(&c.conf)
	return out
}

// hist copies h, or returns nil for an empty digest.
func (b *windowSlab) hist(h *ConfidenceHist) *ConfidenceHist {
	if h.Count == 0 {
		return nil
	}
	b.hists = append(b.hists, *h)
	return &b.hists[len(b.hists)-1]
}
