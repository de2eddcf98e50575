package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"videoplat/internal/fingerprint"
	"videoplat/internal/obs"
	"videoplat/internal/pipeline"
)

// The map fold below is how a Rollup folded records before its open window
// became dense: every record updates the Window's string-keyed maps
// directly. It is kept as the oracle FuzzRollupMatchesMapFold checks the
// Rollup against. The map merge after it is how the Store's tiers and
// Query merged sealed windows before they folded them into an openWindow
// too; it is the oracle of FuzzStoreMatchesMapMerge.

// intSums keeps the sums a Rollup folds as integers — watch time per cell
// in nanoseconds, probabilities per digest in 1e-9 units — beside the map
// fold's float fields; materialize writes them over those fields, as a seal
// derives them. A nil *intSums keeps nothing, for a summary folded only to
// be merged.
type intSums struct {
	watch map[*Cell]time.Duration
	nanos map[*ConfidenceHist]int64
}

func newIntSums() *intSums {
	return &intSums{watch: map[*Cell]time.Duration{}, nanos: map[*ConfidenceHist]int64{}}
}

// observe folds one probability into h, the integer sum beside it.
func (s *intSums) observe(h *ConfidenceHist, v float64) {
	h.Observe(v)
	if s != nil {
		s.nanos[h] += int64(math.Round(min(max(v, 0), 1) * 1e9))
	}
}

// materialize writes the integer sums of w's cells and digests over their
// float fields.
func (s *intSums) materialize(w *Window) {
	for _, cells := range []map[string]*Cell{w.ByProvider, w.ByPlatform} {
		for _, c := range cells {
			c.WatchSeconds = s.watch[c].Seconds()
			if c.Confidence != nil {
				c.Confidence.Sum = float64(s.nanos[c.Confidence]) / 1e9
			}
		}
	}
	if q := w.Quality; q != nil {
		for _, h := range []*ConfidenceHist{q.Confidence, q.Margin} {
			if h != nil {
				h.Sum = float64(s.nanos[h]) / 1e9
			}
		}
	}
}

// add folds one finalized flow into the cell.
func (c *Cell) add(rec *pipeline.FlowRecord, sums *intSums) {
	c.Flows++
	if rec.Verdict.ClassifierRan() {
		if rec.Verdict == pipeline.VerdictClassified {
			c.ClassifiedFlows++
		} else {
			c.AbstainedFlows++
		}
		if c.Confidence == nil {
			c.Confidence = &ConfidenceHist{}
		}
		sums.observe(c.Confidence, rec.Prediction.PlatformConf)
	}
	c.WatchSeconds += rec.Duration().Seconds()
	if sums != nil {
		sums.watch[c] += rec.Duration()
	}
	c.BytesDown += rec.BytesDown
	c.BytesUp += rec.BytesUp
	if m := rec.MbpsDown(); m > c.PeakMbpsDown {
		c.PeakMbpsDown = m
	}
}

// add folds one finalized flow into the summary.
func (q *QualitySummary) add(rec *pipeline.FlowRecord, sums *intSums) {
	if q.Verdicts == nil {
		q.Verdicts = make(map[string]uint64)
	}
	q.Verdicts[rec.Verdict.String()]++
	if rec.Verdict.ClassifierRan() {
		if q.Confidence == nil {
			q.Confidence = &ConfidenceHist{}
		}
		sums.observe(q.Confidence, rec.Prediction.PlatformConf)
		if q.Margin == nil {
			q.Margin = &ConfidenceHist{}
		}
		sums.observe(q.Margin, rec.Prediction.PlatformMargin)
	}
}

// add folds one finalized flow into the window's maps.
func (w *Window) add(rec *pipeline.FlowRecord, sums *intSums) {
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
	cell.add(rec, sums)

	platform := "unclassified"
	if classified && rec.Prediction.Platform != "" {
		platform = rec.Prediction.Platform
	}
	cell = w.ByPlatform[platform]
	if cell == nil {
		cell = &Cell{}
		w.ByPlatform[platform] = cell
	}
	cell.add(rec, sums)

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
	w.Quality.add(rec, sums)
}

// seal derives MeanMbpsDown from the totals alone. (The map merge once
// kept the previous mean when a merge left the watch time at or below
// zero, which only records with negative durations can do; the mean of a
// single wider window over the same flows is 0 there, as openCell.cell
// gives.)
func (c *Cell) seal() {
	c.MeanMbpsDown = 0
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

// Clone returns a deep copy of w that shares no state with the original.
func (w *Window) Clone() *Window {
	c := &Window{}
	c.Merge(w)
	return c
}

// Merge folds src into w: the time range extends to cover both windows,
// counters sum, per-key cells merge (watch-time-weighted means, max peaks),
// ModelVersions counts add, and ClassificationRate is recomputed from the
// merged totals. src is not modified.
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

// Merge folds src into q. nil src is a no-op.
func (q *QualitySummary) Merge(src *QualitySummary) {
	if src == nil {
		return
	}
	if len(src.Verdicts) > 0 {
		if q.Verdicts == nil {
			q.Verdicts = make(map[string]uint64, len(src.Verdicts))
		}
		for k, v := range src.Verdicts {
			q.Verdicts[k] += v
		}
	}
	if src.Confidence != nil {
		if q.Confidence == nil {
			q.Confidence = &ConfidenceHist{}
		}
		q.Confidence.Merge(src.Confidence)
	}
	if src.Margin != nil {
		if q.Margin == nil {
			q.Margin = &ConfidenceHist{}
		}
		q.Margin.Merge(src.Margin)
	}
	if src.DriftScore > q.DriftScore {
		q.DriftScore = src.DriftScore
	}
	q.ShadowAgreed += src.ShadowAgreed
	q.ShadowDisagreed += src.ShadowDisagreed
}

// mapRollup is Rollup's windowing over the map fold: a record is folded
// into the window its LastSeen names, or, behind the last window sealed,
// into the oldest one still open to it as a late flow. Windows seal oldest
// first when the watermark passes their end, when one more would be open
// than MaxOpenWindows, and at flush, which also forgets the watermark.
type mapRollup struct {
	width  time.Duration
	sink   func(*Window)
	enrich func(*Window)
	open   []*Window // oldest first
	closed time.Time
	sums   *intSums
}

func (r *mapRollup) add(rec *pipeline.FlowRecord) {
	if r.sums == nil {
		r.sums = newIntSums()
	}
	start := bucketStart(rec.LastSeen, r.width)
	w := r.find(start)
	if w == nil && len(r.open) == MaxOpenWindows {
		r.sealBefore(r.open[0].End)
	}
	late := start.Before(r.closed)
	if late {
		start = r.closed
		w = r.find(start)
	}
	if w == nil {
		w = &Window{
			Start:      start,
			End:        start.Add(r.width),
			ByProvider: map[string]*Cell{},
			ByPlatform: map[string]*Cell{},
		}
		r.open = append(r.open, w)
		slices.SortFunc(r.open, func(a, b *Window) int { return a.Start.Compare(b.Start) })
	}
	if late {
		w.LateFlows++
	}
	w.add(rec, r.sums)
}

func (r *mapRollup) find(start time.Time) *Window {
	for _, w := range r.open {
		if w.Start.Equal(start) {
			return w
		}
	}
	return nil
}

func (r *mapRollup) advance(wm time.Time) { r.sealBefore(bucketStart(wm, r.width)) }

func (r *mapRollup) flush() {
	if len(r.open) > 0 {
		r.sealBefore(r.open[len(r.open)-1].End)
	}
	r.closed = time.Time{}
}

func (r *mapRollup) sealBefore(t time.Time) {
	if !r.closed.IsZero() && !t.After(r.closed) {
		return
	}
	for len(r.open) > 0 && !r.open[0].End.After(t) {
		w := r.open[0]
		r.open = r.open[1:]
		if r.enrich != nil {
			r.enrich(w)
		}
		r.sums.materialize(w)
		w.seal()
		r.sink(w)
	}
	r.closed = t
}

// current merges the open windows, as Rollup.Current does.
func (r *mapRollup) current() *Window {
	if len(r.open) == 0 {
		return nil
	}
	snap := &Window{}
	for _, w := range r.open {
		r.sums.materialize(w)
		snap.Merge(w)
	}
	snap.seal()
	return snap
}

// fuzzRecord builds one record from six bytes: provider and verdict (each
// including one value past the last), platform label (interned, a copy
// with its own storage, empty, or "unclassified" itself), model version,
// clock advance or lateness, duration (zero and negative included),
// confidence and margin (bucket edges included), and a classification
// latency or none.
func fuzzRecord(b [6]byte, clock *time.Time) *pipeline.FlowRecord {
	labels := fingerprint.AllPlatformLabels()
	versions := []string{"v0001", "v0002", "", "unversioned"}
	rec := &pipeline.FlowRecord{
		Provider: fingerprint.Provider(int(b[0]&7) % (fingerprint.NumProviders + 1)),
		Verdict:  pipeline.Verdict(int(b[0]>>3) % (pipeline.NumVerdicts + 1)),
	}
	switch i := int(b[1] & 31); {
	case i < len(labels):
		rec.Prediction.Platform = labels[i]
	case i == len(labels):
		rec.Prediction.Platform = strings.Clone(labels[int(b[1]>>5)%len(labels)])
	case i == len(labels)+1:
		rec.Prediction.Platform = "unclassified"
	}
	rec.ModelVersion = versions[int(b[1]>>5)%len(versions)]
	if b[2]&0x80 != 0 {
		rec.LastSeen = clock.Add(-time.Duration(b[2]&0x7f) * time.Second) // late, or not, by up to two minutes
	} else {
		*clock = clock.Add(time.Duration(b[2]) * 1500 * time.Millisecond)
		rec.LastSeen = *clock
	}
	dur := time.Duration(b[3]) * 997 * time.Millisecond
	if b[3] == 0xff {
		dur = -3 * time.Second
	}
	rec.FirstSeen = rec.LastSeen.Add(-dur)
	rec.BytesDown = int64(b[3])<<16 | int64(b[4])<<8 | int64(b[1])
	rec.BytesUp = int64(b[4]) << 6
	rec.Prediction.PlatformConf = float64(b[4]) / 255
	if b[4]&0x80 != 0 {
		rec.Prediction.PlatformConf = float64(b[4]%(NumConfidenceBuckets+1)) / NumConfidenceBuckets
	}
	rec.Prediction.PlatformMargin = rec.Prediction.PlatformConf * float64(b[5]>>4) / 15
	if b[5]&1 != 0 {
		rec.ClassifyNanos = int64(1)<<(4+int(b[5]>>1&31)%28) + int64(b[2])
	}
	return rec
}

// sinkFunc adapts a function to Sink.
type sinkFunc func(*Window) error

func (f sinkFunc) WriteWindow(w *Window) error { return f(w) }

// FuzzRollupMatchesMapFold feeds one byte-driven record stream to a Rollup
// and to mapRollup, the map fold it replaced, with watermark advances,
// Current snapshots and Flushes interleaved. The streams mix every provider
// and verdict, platform labels, model versions, timed and untimed
// classifications, records behind the watermark and window crossings, and
// run past MaxOpenWindows. Both sides stamp the same gauges at seal; every
// sealed window and every snapshot must encode to identical JSON.
func FuzzRollupMatchesMapFold(f *testing.F) {
	f.Add([]byte{0, 0x11, 3, 0x20, 10, 0x80, 0x0f, 0x03, 0x42, 0x80, 0x91, 0x33, 2, 1, 0x29, 0xd3, 0x07, 0x28, 0xff, 0xe1, 0x15, 3})
	f.Add(bytes.Repeat([]byte{1, 0x0a, 0x31, 0x0b, 0x9a, 0xc7, 0x4f, 0xd1}, 12))
	f.Add(bytes.Repeat([]byte{0, 0x4b, 0xf2, 0x85, 0x00, 0x33, 0x81, 2, 0x37, 0x12, 0x22, 0xff, 0x90, 0x2c}, 10))
	f.Add(bytes.Repeat([]byte{3, 0x21, 0x7f, 0x40, 0x13, 0x05, 0xd0, 0xe4}, 90)) // past MaxOpenWindows
	f.Fuzz(func(t *testing.T, ops []byte) {
		encode := func(w *Window) string {
			raw, err := json.Marshal(w)
			if err != nil {
				t.Fatal(err)
			}
			return string(raw)
		}
		enrich := func(sealed *int) func(*Window) {
			return func(w *Window) {
				*sealed++
				w.Quality.DriftScore = float64(*sealed%4) / 8
				w.Quality.ShadowAgreed = uint64(*sealed * 3)
			}
		}
		var got, want []string
		var gotSealed, wantSealed int
		stamp := enrich(&gotSealed)
		r := NewRollup(time.Minute, sinkFunc(func(w *Window) error {
			stamp(w)
			got = append(got, encode(w))
			return nil
		}))
		m := &mapRollup{width: time.Minute, sink: func(w *Window) { want = append(want, encode(w)) }, enrich: enrich(&wantSealed)}

		clock := w0
		for step := 0; len(ops) > 0; step++ {
			op := ops[0]
			ops = ops[1:]
			switch {
			case op < 0xd0: // a record
				var b [6]byte
				ops = ops[copy(b[:], ops):]
				b[0] ^= op
				rec := fuzzRecord(b, &clock)
				r.Add(rec)
				m.add(rec)
			case op < 0xe0: // the watermark, up to seven and a half minutes behind the clock
				wm := clock.Add(-time.Duration(op&0x0f) * 30 * time.Second)
				r.Advance(wm)
				m.advance(wm)
			case op < 0xf0:
				if g, w := encode(r.Current()), encode(m.current()); g != w {
					t.Fatalf("step %d: snapshot\n%s\nmap fold\n%s", step, g, w)
				}
			default:
				r.Flush()
				m.flush()
			}
			if len(got) != len(want) {
				t.Fatalf("step %d: %d windows sealed, map fold %d", step, len(got), len(want))
			}
			if n := r.OpenWindows(); n != len(m.open) || n > MaxOpenWindows {
				t.Fatalf("step %d: %d windows open, map fold %d, bound %d", step, n, len(m.open), MaxOpenWindows)
			}
		}
		r.Flush()
		m.flush()
		if len(got) != len(want) || r.Sealed() != len(want) {
			t.Fatalf("%d windows sealed (Sealed %d), map fold %d", len(got), r.Sealed(), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("window %d:\n%s\nmap fold\n%s", i, got[i], want[i])
			}
		}
	})
}
