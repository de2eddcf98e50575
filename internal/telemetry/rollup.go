// Package telemetry is the daemon's serving telemetry. The Rollup folds
// each decided flow record into the window of its last packet and seals
// windows on the shards' packet-time watermark; the Store retains sealed
// windows in downsampling tiers, persists them as a JSONL archive and
// answers /query. One aggregator, the dense open window (openWindow), folds
// for all of them.
package telemetry

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"slices"
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

// Window is one sealed tumbling window of flow aggregates: the unit the
// rollup engine retires to its sink. Flows are assigned to windows by their
// LastSeen timestamp, the flow's last packet.
//
// A sealed Window is immutable once the Rollup's sink has passed it on. The
// Rollup builds it once and hands it to its one sink first and alone, which
// may stamp window-scoped fields no flow record carries; after that the
// Store's tiers and archives retain the pointer and every reader shares it,
// so nothing may modify it.
type Window struct {
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`

	Flows           int `json:"flows"`
	ClassifiedFlows int `json:"classified_flows"`
	// LateFlows counts records that arrived after the window their LastSeen
	// names had sealed — input out of packet-time order by more than the
	// watermark's lag — folded into this window, the oldest still open,
	// rather than reopening a sealed one.
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

// Sink receives sealed windows. A Rollup calls WriteWindow on the goroutine
// that calls Advance or Flush (or an Add past MaxOpenWindows), with the
// rollup lock held: seals reach the sink one at a time, in seal order, and
// the sink must not call back into the Rollup. A Rollup's sink gets each
// window first and alone, so it may stamp window-scoped fields before
// passing the window on; once passed on, the window is shared with every
// other sink and reader and must not be modified. Implementations that
// share state with other goroutines must synchronize internally.
type Sink interface {
	WriteWindow(w *Window) error
}

// MultiSink fans each sealed window out to every sink in order, e.g. a
// queryable Store plus a JSONL archive. All sinks are offered every window
// even when an earlier one fails; the errors are joined. Every sink gets
// the same sealed window, which the Store retains as it is, so no sink may
// modify it.
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
// aggregates over finalized flow records. Windows are aligned to multiples
// of the width, and a record is folded into the window its LastSeen names.
// Time is record-supplied, so replay and live operation roll up identically.
//
// A window seals, oldest first, once the watermark passes its end: Advance
// says that no record still to come has a LastSeen before the given time,
// and the records of every window ending at or before it are then all in.
// Flush seals whatever is still open. What a window holds is therefore a
// function of the records alone, not of the order they arrive in: the
// fold's sums are integers, so even their last bits are order-free. A
// record behind a window already sealed (its producer broke the watermark's
// promise) is folded into the oldest window still open to it and counted in
// that window's LateFlows.
//
// At most MaxOpenWindows windows are open at once; a record that would open
// one more seals the oldest first, as if the watermark had passed it. Open
// windows are folded in a dense form the Rollup owns and reuses (see
// openWindow); each seal, and each Current snapshot, builds a newly
// allocated Window from it.
//
// Rollup is safe for concurrent use. Seals are serialized: the sink gets
// each sealed window under the rollup lock (see Sink), so state a sink
// keeps from one seal to the next needs no lock of its own.
type Rollup struct {
	mu    sync.Mutex
	width time.Duration
	sink  Sink
	// open holds the windows not yet sealed, oldest first. Past its length,
	// up to its capacity, it keeps the storage of sealed ones for the next
	// windows to open.
	open []*openWindow
	// closed is where the open windows begin: every window ending at or
	// before it has sealed, and a record whose LastSeen is before it is
	// late. The zero Time until the first seal or Advance, and again after
	// a Flush.
	closed   time.Time
	sealed   int
	sinkErr  error  // first failure, kept verbatim for /stats
	sinkErrs uint64 // every failure, for the sink-errors counter
}

// MaxOpenWindows bounds the windows a Rollup holds open. A daemon's
// watermark trails its packet clock by about IdleTimeout + IdleTimeout/4
// (see pipeline.Sharded.Watermark), so it holds that much packet time plus
// one width open: three or four one-minute windows at the default 90 s
// timeout. The bound leaves room for a timeout of some fifty widths, and a
// window's storage is a few kilobytes.
const MaxOpenWindows = 64

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

// Add folds one finalized flow record into the window its LastSeen names,
// or, when that window has already sealed, into the oldest one still open
// to it as a late flow. Add never seals a window the watermark has not
// passed; only opening one past MaxOpenWindows seals the oldest.
func (r *Rollup) Add(rec *pipeline.FlowRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	ts := rec.LastSeen
	o := r.find(ts)
	if o == nil && len(r.open) == MaxOpenWindows {
		r.sealBefore(r.open[0].end)
	}
	late := ts.Before(r.closed) // closed is a window boundary
	if late {
		ts = r.closed
		o = r.find(ts)
	}
	if o == nil {
		o = r.openAt(bucketStart(ts, r.width))
	}
	o.add(rec, late)
}

// Advance moves the watermark to wm: the caller promises that no record
// still to come has a LastSeen before it. Every open window ending at or
// before wm seals, oldest first. A watermark behind an earlier one changes
// nothing.
func (r *Rollup) Advance(wm time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sealBefore(bucketStart(wm, r.width))
}

// Flush seals every open window, oldest first, and forgets the watermark:
// the Rollup starts over as a new one would. Call at shutdown, once the
// last record is in, so the trailing windows reach the sink.
func (r *Rollup) Flush() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.open); n > 0 {
		r.sealBefore(r.open[n-1].end)
	}
	r.closed = time.Time{}
}

// Sealed reports how many windows have been sealed and offered to the sink.
func (r *Rollup) Sealed() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.sealed
}

// OpenWindows reports how many windows are open: folded into, not yet
// sealed. Never more than MaxOpenWindows.
func (r *Rollup) OpenWindows() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.open)
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

// Current returns a deep snapshot of the open windows merged into one, from
// the oldest one's start to the newest one's end, or nil if none is open —
// the live view the /stats endpoint serves.
func (r *Rollup) Current() *Window {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.open) == 0 {
		return nil
	}
	var m openWindow
	m.reset(r.open[0].start, r.open[len(r.open)-1].end)
	for _, o := range r.open {
		m.merge(o.window())
	}
	return m.window()
}

// find returns the open window holding ts, or nil. Records mostly land in
// the newest windows, so the search runs from there.
func (r *Rollup) find(ts time.Time) *openWindow {
	for i := len(r.open) - 1; i >= 0; i-- {
		if o := r.open[i]; !ts.Before(o.start) {
			if ts.Before(o.end) {
				return o
			}
			return nil
		}
	}
	return nil
}

// openAt opens the window starting at start, in its place among the open
// ones, on a sealed window's storage when there is one.
func (r *Rollup) openAt(start time.Time) *openWindow {
	n := len(r.open)
	if n == cap(r.open) {
		r.open = append(r.open, new(openWindow))[:n]
	}
	r.open = r.open[:n+1]
	o := r.open[n]
	if o == nil {
		o = new(openWindow)
	}
	o.reset(start, start.Add(r.width))
	i := n
	for i > 0 && r.open[i-1].start.After(start) {
		i--
	}
	copy(r.open[i+1:], r.open[i:n])
	r.open[i] = o
	return o
}

// sealBefore seals, oldest first, every open window ending at or before t,
// and moves closed up to t. A sealed window's storage moves behind the
// open ones. Callers hold mu.
func (r *Rollup) sealBefore(t time.Time) {
	if !r.closed.IsZero() && !t.After(r.closed) {
		return
	}
	for n := len(r.open); n > 0 && !r.open[0].end.After(t); n-- {
		o := r.open[0]
		r.seal(o)
		copy(r.open, r.open[1:n])
		r.open[n-1] = o
		r.open = r.open[:n-1]
	}
	r.closed = t
}

// seal builds one window and hands it to the sink. Callers hold mu.
func (r *Rollup) seal(o *openWindow) {
	r.sealed++
	if r.sink != nil {
		if err := r.sink.WriteWindow(o.window()); err != nil {
			r.sinkErrs++
			if r.sinkErr == nil {
				r.sinkErr = err
			}
		}
	}
}

// openWindow is a Window being folded, in the shape a fold wants: provider
// cells indexed by Provider, platform cells and model versions in short
// slices searched linearly (the pipeline interns platform labels, so a
// match is usually a pointer compare), and verdicts counted by value. It is
// the package's one aggregator: the Rollup folds records into it (add), and
// the Store's tiers and Query fold sealed windows into it (merge). Each
// owner resets one per window and keeps its storage, so a warm fold
// allocates nothing, and window builds the sealed Window, byte for byte
// what folding into the Window's maps directly would give.
type openWindow struct {
	start, end              time.Time
	flows, classified, late int

	providers [fingerprint.NumProviders + 1]openCell // the last is "unmatched"
	// oddProviders holds providers outside the enum, by name: a Provider
	// value past NumProviders, which the pipeline never sets but a
	// hand-built record might, or a name from another build's archive.
	oddProviders []namedCell
	platforms    []namedCell
	versions     []versionCount

	verdicts [pipeline.NumVerdicts]uint64
	// oddVerdicts counts verdict names outside pipeline.VerdictNames(),
	// which only a merged window from another build's archive carries.
	oddVerdicts  map[string]uint64
	latency      obs.Summary
	conf, margin confFold

	// What only merged windows carry: the window-scoped gauges a Rollup's
	// sink stamps on a sealed window, and whether a quality summary was
	// present at all.
	drift                         float64
	shadowAgreed, shadowDisagreed uint64
	quality                       bool
}

// openCell is a Cell being folded. Its Confidence stays nil: the digest
// accumulates in conf, so resetting the cell frees nothing. A record's
// watch time is summed in watch, as integer nanoseconds, so the sum does
// not depend on the order records arrive in (a float sum's last bits do);
// WatchSeconds sums only what merged windows carry, in the fixed order a
// Store merges them.
type openCell struct {
	Cell
	watch time.Duration
	conf  confFold
}

// confFold is a ConfidenceHist being folded. A record's probability is
// summed in nanos, as an integer count of 1e-9 units, for the same reason
// watch time is; the histogram's Sum sums only merged digests.
type confFold struct {
	ConfidenceHist
	nanos int64
}

// observe folds one probability in, clamped into [0, 1] for the sum as it
// is for the buckets.
func (f *confFold) observe(v float64) {
	f.Count++
	f.Buckets[confBucket(v)]++
	f.nanos += int64(math.Round(min(max(v, 0), 1) * 1e9))
}

// digest returns the histogram f folded, in an allocation of its own, or
// nil when it is empty. One allocation each keeps a retained window's
// digests in their exact size class; one slice of them would round up to
// the next.
func (f *confFold) digest() *ConfidenceHist {
	if f.Count == 0 {
		return nil
	}
	d := f.ConfidenceHist
	d.Sum += float64(f.nanos) / 1e9
	return &d
}

type namedCell struct {
	name string
	openCell
}

// versionCount counts classifier runs by model version, "unversioned" for
// a bank with none.
type versionCount struct {
	version string
	n       int
}

// unmatched is the provider cell of flows that never got far enough to
// identify a provider.
const unmatched = fingerprint.NumProviders

// providerNames names the provider cells by index.
var providerNames = func() (names [fingerprint.NumProviders + 1]string) {
	for i := range fingerprint.NumProviders {
		names[i] = fingerprint.Provider(i).String()
	}
	names[unmatched] = "unmatched"
	return names
}()

// verdictNames names the verdict counts by index.
var verdictNames = pipeline.VerdictNames()

func (o *openWindow) reset(start, end time.Time) {
	latency := o.latency
	latency.Reset()
	clear(o.oddVerdicts)
	*o = openWindow{
		start:        start,
		end:          end,
		oddProviders: o.oddProviders[:0],
		platforms:    o.platforms[:0],
		versions:     o.versions[:0],
		oddVerdicts:  o.oddVerdicts,
		latency:      latency,
	}
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
	dur := rec.Duration()
	var mbps float64 // rec.MbpsDown()
	if secs := dur.Seconds(); secs > 0 {
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
	prov.add(rec, ran, dur, mbps)
	platform := "unclassified"
	if classified && rec.Prediction.Platform != "" {
		platform = rec.Prediction.Platform
	}
	findCell(&o.platforms, platform).add(rec, ran, dur, mbps)

	if ran {
		o.countVersion(rec.ModelVersion, 1)
		o.conf.observe(rec.Prediction.PlatformConf)
		o.margin.observe(rec.Prediction.PlatformMargin)
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

// merge folds a sealed window into o, as if o had folded the window's
// flows itself: counters sum, cells merge by name, the digests merge, the
// drift gauge takes the max and the shadow counters sum. Start, End and
// the derived fields are o's own. A provider or verdict name this build
// does not know is kept by name: a reloaded archive is outside input, so
// nothing in it is dropped or renamed. w is not modified.
func (o *openWindow) merge(w *Window) {
	o.flows += w.Flows
	o.classified += w.ClassifiedFlows
	o.late += w.LateFlows
	for name, c := range w.ByProvider {
		o.provider(name).merge(c, c.Confidence)
	}
	for name, c := range w.ByPlatform {
		findCell(&o.platforms, name).merge(c, c.Confidence)
	}
	for version, n := range w.ModelVersions {
		o.countVersion(version, n)
	}
	o.latency.Merge(w.Latency)
	q := w.Quality
	if q == nil {
		return
	}
	o.quality = true
	for name, n := range q.Verdicts {
		if v := slices.Index(verdictNames[:], name); v >= 0 {
			o.verdicts[v] += n
			continue
		}
		if o.oddVerdicts == nil {
			o.oddVerdicts = map[string]uint64{}
		}
		o.oddVerdicts[name] += n
	}
	o.conf.Merge(q.Confidence)
	o.margin.Merge(q.Margin)
	o.drift = max(o.drift, q.DriftScore)
	o.shadowAgreed += q.ShadowAgreed
	o.shadowDisagreed += q.ShadowDisagreed
}

// providerCells yields the provider cells o holds, by name. An enum
// provider's cell is held when a record or a merged window put anything in
// it.
func (o *openWindow) providerCells(yield func(string, *openCell) bool) {
	for i := range o.providers {
		if c := &o.providers[i]; *c != (openCell{}) && !yield(providerNames[i], c) {
			return
		}
	}
	for i := range o.oddProviders {
		if c := &o.oddProviders[i]; !yield(c.name, &c.openCell) {
			return
		}
	}
}

// verdictCounts names o's verdict counts, those outside VerdictNames()
// included.
func (o *openWindow) verdictCounts() map[string]uint64 {
	counts := map[string]uint64{}
	for v, n := range o.verdicts {
		if n > 0 {
			counts[verdictNames[v]] = n
		}
	}
	maps.Copy(counts, o.oddVerdicts)
	return counts
}

// provider returns the cell of the provider named name.
func (o *openWindow) provider(name string) *openCell {
	if i := slices.Index(providerNames[:], name); i >= 0 {
		return &o.providers[i]
	}
	return findCell(&o.oddProviders, name)
}

func (c *openCell) add(rec *pipeline.FlowRecord, ran bool, dur time.Duration, mbps float64) {
	c.Flows++
	if ran {
		if rec.Verdict == pipeline.VerdictClassified {
			c.ClassifiedFlows++
		} else {
			c.AbstainedFlows++
		}
		c.conf.observe(rec.Prediction.PlatformConf)
	}
	c.watch += dur
	c.BytesDown += rec.BytesDown
	c.BytesUp += rec.BytesUp
	if mbps > c.PeakMbpsDown {
		c.PeakMbpsDown = mbps
	}
}

// merge folds a cell and its confidence digest into c: PeakMbpsDown takes
// the max, the rest sums.
func (c *openCell) merge(src *Cell, conf *ConfidenceHist) {
	c.Flows += src.Flows
	c.ClassifiedFlows += src.ClassifiedFlows
	c.AbstainedFlows += src.AbstainedFlows
	c.conf.Merge(conf)
	c.WatchSeconds += src.WatchSeconds
	c.BytesDown += src.BytesDown
	c.BytesUp += src.BytesUp
	if src.PeakMbpsDown > c.PeakMbpsDown {
		c.PeakMbpsDown = src.PeakMbpsDown
	}
}

// cell returns c sealed: its watch time and mean bandwidth derived and its
// digest in an allocation of its own.
func (c *openCell) cell() Cell {
	out := c.Cell
	out.WatchSeconds = c.watchSeconds()
	out.MeanMbpsDown = c.meanMbpsDown()
	out.Confidence = c.conf.digest()
	return out
}

// watchSeconds is the cell's watch time: what merged windows carried plus
// what records folded in.
func (c *openCell) watchSeconds() float64 { return c.WatchSeconds + c.watch.Seconds() }

// meanMbpsDown is the cell's mean downstream bandwidth over its watch
// time, from the totals: the watch-time-weighted mean, not an average of
// means.
func (c *openCell) meanMbpsDown() float64 {
	secs := c.watchSeconds()
	if secs <= 0 {
		return 0
	}
	return float64(c.BytesDown) * 8 / 1e6 / secs
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

func (o *openWindow) countVersion(version string, n int) {
	if version == "" {
		version = "unversioned"
	}
	for i := range o.versions {
		if o.versions[i].version == version {
			o.versions[i].n += n
			return
		}
	}
	o.versions = append(o.versions, versionCount{version: version, n: n})
}

// window builds the sealed Window from o, sharing no mutable state with
// it, derived fields (rates, means) included. A cell, summary or map is
// present exactly when a record or a merged window put something in it:
// the provider cells providerCells yields, a cell's Confidence when the
// classifier ran on one of its flows, ModelVersions and the quality digests
// likewise, Latency when a timed classification landed, and Quality when
// the window holds a flow or a merged window carried one. The window's
// cells are one allocation.
func (o *openWindow) window() *Window {
	w := &Window{Start: o.start, End: o.end, Flows: o.flows, ClassifiedFlows: o.classified, LateFlows: o.late}
	if o.flows > 0 {
		w.ClassificationRate = float64(o.classified) / float64(o.flows)
	}
	nprov := 0
	for range o.providerCells {
		nprov++
	}
	cells := make([]Cell, 0, nprov+len(o.platforms)) // sized so that appending never moves them
	cell := func(c *openCell) *Cell {
		cells = append(cells, c.cell())
		return &cells[len(cells)-1]
	}

	w.ByProvider = make(map[string]*Cell, nprov)
	for name, c := range o.providerCells {
		w.ByProvider[name] = cell(c)
	}
	w.ByPlatform = make(map[string]*Cell, len(o.platforms))
	for i := range o.platforms {
		w.ByPlatform[o.platforms[i].name] = cell(&o.platforms[i].openCell)
	}

	if len(o.versions) > 0 {
		w.ModelVersions = make(map[string]int, len(o.versions))
		for _, v := range o.versions {
			w.ModelVersions[v.version] = v.n
		}
	}
	if o.latency.Count > 0 {
		w.Latency = &obs.Summary{}
		w.Latency.Merge(&o.latency)
	}
	if o.flows > 0 || o.quality {
		w.Quality = &QualitySummary{
			Verdicts:        o.verdictCounts(),
			Confidence:      o.conf.digest(),
			Margin:          o.margin.digest(),
			DriftScore:      o.drift,
			ShadowAgreed:    o.shadowAgreed,
			ShadowDisagreed: o.shadowDisagreed,
		}
	}
	return w
}
