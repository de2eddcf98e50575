package telemetry

import (
	"fmt"
	"maps"
	"slices"
	"strings"
	"time"

	"videoplat/internal/obs"
)

// Query group-by dimensions.
const (
	// GroupTotal aggregates every flow into one "total" series.
	GroupTotal = ""
	// GroupProvider returns one series per video provider (plus
	// "unmatched" for flows that never identified one).
	GroupProvider = "provider"
	// GroupPlatform returns one series per predicted user platform (plus
	// "unclassified").
	GroupPlatform = "platform"
	// GroupModel returns one series per model bank version, counting the
	// classification attempts attributed to each version. Unlike the other
	// groupings this includes confidence-rejected (Unknown) predictions —
	// a version rejecting heavily is exactly the drift signal the
	// attribution exists for — so its totals are NOT comparable to the
	// classified_flows of total/provider/platform series.
	GroupModel = "model"
)

// QueryPoint is one re-aggregated time bucket of a series: the merge of
// every source window (or, for grouped queries, the group's cell in every
// source window) whose Start falls inside [Start, End).
type QueryPoint struct {
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// Windows is how many source windows were merged into this bucket
	// (shared by all series of the result).
	Windows int `json:"windows"`

	Flows           int     `json:"flows"`
	ClassifiedFlows int     `json:"classified_flows,omitempty"`
	LateFlows       int     `json:"late_flows,omitempty"`
	WatchSeconds    float64 `json:"watch_seconds,omitempty"`
	BytesDown       int64   `json:"bytes_down,omitempty"`
	BytesUp         int64   `json:"bytes_up,omitempty"`
	// MeanMbpsDown is the watch-time-weighted mean downstream bandwidth
	// over the merged windows; PeakMbpsDown the highest per-flow mean.
	MeanMbpsDown float64 `json:"mean_mbps_down,omitempty"`
	PeakMbpsDown float64 `json:"peak_mbps_down,omitempty"`

	// LatencyCount and the latency quantiles digest the bucket's merged
	// classification-latency summary (total/ungrouped series only — cells
	// do not carry per-group latency). Zero when the windows carried no
	// latency summary.
	LatencyCount  uint64  `json:"latency_count,omitempty"`
	LatencyP50Ms  float64 `json:"latency_p50_ms,omitempty"`
	LatencyP90Ms  float64 `json:"latency_p90_ms,omitempty"`
	LatencyP99Ms  float64 `json:"latency_p99_ms,omitempty"`
	LatencyMaxMs  float64 `json:"latency_max_ms,omitempty"`
	LatencyMeanMs float64 `json:"latency_mean_ms,omitempty"`

	// AbstainedFlows counts confidence-rejected classification attempts in
	// the bucket; AbstainRate is abstained / (classified + abstained) — the
	// share of attempts the open-set selector rejected. Available for total,
	// provider and platform series.
	AbstainedFlows int     `json:"abstained_flows,omitempty"`
	AbstainRate    float64 `json:"abstain_rate,omitempty"`
	// Confidence quantiles/mean digest the bucket's merged confidence
	// histogram over classification attempts. Quantiles are histogram-bucket
	// upper bounds (resolution 1/NumConfidenceBuckets) and therefore exact
	// across downsampling and re-aggregation. Available for total, provider
	// and platform series.
	ConfidenceCount uint64  `json:"confidence_count,omitempty"`
	ConfidenceP10   float64 `json:"confidence_p10,omitempty"`
	ConfidenceP50   float64 `json:"confidence_p50,omitempty"`
	ConfidenceMean  float64 `json:"confidence_mean,omitempty"`

	// Verdicts, DriftScore and the shadow counters surface the bucket's
	// merged QualitySummary (total series only — the summary is
	// window-scoped, not per-cell).
	Verdicts        map[string]uint64 `json:"verdicts,omitempty"`
	DriftScore      float64           `json:"drift_score,omitempty"`
	ShadowAgreed    uint64            `json:"shadow_agreed,omitempty"`
	ShadowDisagreed uint64            `json:"shadow_disagreed,omitempty"`
}

// QuerySeries is one group's time series, points in ascending Start order.
// Empty buckets are omitted, not zero-filled.
type QuerySeries struct {
	// Key is the group value ("total", a provider, a platform label, or a
	// model version, per the query's GroupBy).
	Key    string       `json:"key"`
	Points []QueryPoint `json:"points"`
}

// QueryResult is a Store.Query response.
type QueryResult struct {
	// Since/Until echo the query range (zero = unbounded on that side).
	Since time.Time `json:"since,omitzero"`
	Until time.Time `json:"until,omitzero"`
	// StepSeconds is the bucket width actually used (the raw window width
	// when the query did not constrain it).
	StepSeconds float64 `json:"step_seconds"`
	// GroupBy echoes the grouping dimension ("" = total).
	GroupBy string `json:"group_by,omitempty"`
	// TierSeconds is the resolution of the retention tier that served the
	// query — the raw window width, or a coarser downsampling tier when
	// raw history no longer reaches back to Since.
	TierSeconds float64 `json:"tier_seconds"`
	// SourceWindows is how many stored windows the query scanned.
	SourceWindows int `json:"source_windows"`
	// Series are sorted by Key ("total" alone for ungrouped queries).
	Series []QuerySeries `json:"series"`
}

// Query re-aggregates retained windows into per-step buckets, optionally
// grouped by provider, platform or model version.
//
// Windows are assigned to buckets by their Start: a window contributes when
// since <= Start < until (a zero bound is unbounded), and buckets are
// aligned to multiples of step. A step below the serving tier's resolution
// is raised to it. The query is served from the finest tier — raw first,
// then ascending downsampling tiers no coarser than step — whose retained
// history still covers since; when none does, the tier reaching furthest
// back is used, so long ranges degrade to coarser resolution instead of
// silently missing their oldest buckets. When a coarse tier serves the
// query, since is aligned down to the tier's bucket boundary (and echoed
// in the result) so a straddling bucket is included rather than dropped.
//
// Merged buckets are derived exactly as a single wider rollup window over
// the same flows would be (sums, max peaks, watch-time-weighted means), so
// totals are invariant under step and tier choice.
func (s *Store) Query(since, until time.Time, step time.Duration, groupBy string) (*QueryResult, error) {
	switch groupBy {
	case GroupTotal, GroupProvider, GroupPlatform, GroupModel:
	default:
		return nil, fmt.Errorf("telemetry: query: unknown group-by %q (want provider, platform or model)", groupBy)
	}

	res := &QueryResult{Since: since, Until: until, GroupBy: groupBy, Series: []QuerySeries{}}
	s.mu.Lock()
	if s.rawWidth == 0 { // no window accepted yet
		s.mu.Unlock()
		if step > 0 {
			res.StepSeconds = step.Seconds()
		}
		return res, nil
	}
	t := s.pickTier(since, step)
	tierWidth := t.width
	if tierWidth == 0 {
		tierWidth = s.rawWidth
	}
	if step < tierWidth {
		step = tierWidth
	}
	if !since.IsZero() && tierWidth > s.rawWidth {
		// Served from a coarse tier: align since down to its bucket
		// boundary so a bucket straddling the requested start is included
		// (slightly over-inclusive) instead of silently dropped. The
		// response echoes the effective range.
		since = bucketStart(since, tierWidth)
		res.Since = since
	}
	res.StepSeconds = step.Seconds()
	res.TierSeconds = tierWidth.Seconds()
	// Ring windows are immutable, so a copy of the ring's pointers and a
	// snapshot of the open bucket, the one window still folding, is all
	// the merge needs from under the lock; seals wait for that copy, not
	// for the merge.
	ring := make([]*Window, 0, len(t.ring)+1)
	for _, w := range t.ring {
		if startsIn(w.Start, since, until) {
			ring = append(ring, w)
		}
	}
	if t.folding && startsIn(t.open.start, since, until) {
		ring = append(ring, t.open.window())
	}
	s.mu.Unlock()
	res.SourceWindows = len(ring)

	// The ring is in Start order and the open bucket is the newest, so each
	// step-aligned bucket's windows are contiguous: one accumulator folds a
	// bucket and emits its points when the next bucket begins.
	series := map[string]*QuerySeries{}
	appendPoint := func(key string, p QueryPoint) {
		sr := series[key]
		if sr == nil {
			sr = &QuerySeries{Key: key}
			series[key] = sr
		}
		sr.Points = append(sr.Points, p)
	}
	type namedRef struct {
		name string
		c    *openCell
	}
	var acc openWindow
	var providers []namedRef
	for i := 0; i < len(ring); {
		bs := bucketStart(ring[i].Start, step)
		acc.reset(bs, bs.Add(step))
		base := QueryPoint{Start: acc.start, End: acc.end}
		for ; i < len(ring) && bucketStart(ring[i].Start, step).Equal(bs); i++ {
			acc.merge(ring[i])
			base.Windows++
		}
		switch groupBy {
		case GroupTotal:
			// Providers merge in name order: float sums (watch time,
			// confidence) must not depend on the order cells were made.
			providers = providers[:0]
			for name, c := range acc.providerCells {
				providers = append(providers, namedRef{name, c})
			}
			slices.SortFunc(providers, func(a, b namedRef) int { return strings.Compare(a.name, b.name) })
			var total openCell
			for _, pc := range providers {
				total.merge(&pc.c.Cell, &pc.c.conf.ConfidenceHist)
			}
			p := base
			p.fromCell(&total)
			p.Flows = acc.flows // includes flows with no provider cell, if any
			p.ClassifiedFlows = acc.classified
			p.LateFlows = acc.late
			p.fromLatency(&acc.latency)
			p.fromQuality(&acc)
			appendPoint("total", p)
		case GroupProvider:
			for name, c := range acc.providerCells {
				p := base
				p.fromCell(c)
				appendPoint(name, p)
			}
		case GroupPlatform:
			for k := range acc.platforms {
				c := &acc.platforms[k]
				p := base
				p.fromCell(&c.openCell)
				appendPoint(c.name, p)
			}
		case GroupModel:
			for _, v := range acc.versions {
				p := base
				p.Flows = v.n // attempts attributed to the version; see GroupModel
				appendPoint(v.version, p)
			}
		}
	}

	for _, k := range slices.Sorted(maps.Keys(series)) {
		res.Series = append(res.Series, *series[k])
	}
	return res, nil
}

// fromLatency fills the point's latency digest from a bucket's merged
// summary; an empty summary leaves the fields zero.
func (p *QueryPoint) fromLatency(l *obs.Summary) {
	if l == nil || l.Count == 0 {
		return
	}
	const ms = 1e6 // ns per ms
	p.LatencyCount = l.Count
	p.LatencyP50Ms = float64(l.Quantile(0.50)) / ms
	p.LatencyP90Ms = float64(l.Quantile(0.90)) / ms
	p.LatencyP99Ms = float64(l.Quantile(0.99)) / ms
	p.LatencyMaxMs = float64(l.MaxNS) / ms
	p.LatencyMeanMs = float64(l.Mean()) / ms
}

// fromCell copies a bucket cell's aggregates into the point.
func (p *QueryPoint) fromCell(c *openCell) {
	p.Flows = c.Flows
	p.ClassifiedFlows = c.ClassifiedFlows
	p.WatchSeconds = c.watchSeconds()
	p.BytesDown = c.BytesDown
	p.BytesUp = c.BytesUp
	p.MeanMbpsDown = c.meanMbpsDown()
	p.PeakMbpsDown = c.PeakMbpsDown
	p.AbstainedFlows = c.AbstainedFlows
	if att := c.ClassifiedFlows + c.AbstainedFlows; att > 0 {
		p.AbstainRate = float64(c.AbstainedFlows) / float64(att)
	}
	if c.conf.Count > 0 {
		p.ConfidenceCount = c.conf.Count
		p.ConfidenceP10 = c.conf.Quantile(0.10)
		p.ConfidenceP50 = c.conf.Quantile(0.50)
		p.ConfidenceMean = c.conf.Mean()
	}
}

// fromQuality surfaces a bucket's window-level quality into the point
// (verdict counts, drift gauge, shadow counters). The per-cell confidence
// fields are filled by fromCell.
func (p *QueryPoint) fromQuality(o *openWindow) {
	if v := o.verdictCounts(); len(v) > 0 {
		p.Verdicts = v
	}
	p.DriftScore = o.drift
	p.ShadowAgreed = o.shadowAgreed
	p.ShadowDisagreed = o.shadowDisagreed
}

// pickTier selects the tier serving a query: the finest with resolution at
// most step whose history covers since, else the qualifying tier reaching
// furthest back. A tier that has never evicted covers everything it ever
// saw — preferring it by that, not by its oldest bucket start, matters
// because coarse buckets align below the first raw window and would
// otherwise spuriously "reach further back" than a complete raw ring.
// Callers hold mu.
func (s *Store) pickTier(since time.Time, step time.Duration) *tier {
	candidates := []*tier{s.raw}
	for _, t := range s.tiers {
		if step > 0 && t.width > step {
			break // ascending: nothing coarser qualifies either
		}
		candidates = append(candidates, t)
	}
	var best *tier
	var bestOldest time.Time
	for _, t := range candidates {
		oldest, ok := tierOldest(t)
		if !ok {
			continue
		}
		if t.evictions == 0 || (!since.IsZero() && !oldest.After(since)) {
			return t // finest tier with complete (or sufficient) history
		}
		if best == nil || oldest.Before(bestOldest) {
			best, bestOldest = t, oldest
		}
	}
	if best == nil {
		return candidates[0]
	}
	return best
}

// tierOldest reports the oldest Start the tier retains.
func tierOldest(t *tier) (time.Time, bool) {
	if len(t.ring) > 0 {
		return t.ring[0].Start, true
	}
	if t.folding {
		return t.open.start, true
	}
	return time.Time{}, false
}

// Windows lists retained sealed windows with Start in [since, until) (zero
// bounds are unbounded) from the tier whose bucket width matches tierWidth
// (0 = the raw tier; a downsampled tier's in-progress bucket is included
// last). It returns the retained windows themselves, which are sealed and
// must not be modified, in ascending Start order — at most limit of them,
// keeping the newest (limit <= 0 = all) — plus the total number of windows
// matching the range, so a truncated listing still reports how much
// history qualifies. Only the open bucket is built, under the store's
// lock, and only when the range includes it.
func (s *Store) Windows(since, until time.Time, tierWidth time.Duration, limit int) ([]*Window, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.raw
	if tierWidth > 0 && tierWidth != s.rawWidth {
		t = nil
		for _, c := range s.tiers {
			if c.width == tierWidth {
				t = c
				break
			}
		}
		if t == nil {
			return nil, 0, fmt.Errorf("telemetry: no %v tier (configured: %v)", tierWidth, s.tierWidths())
		}
	}
	matching := make([]*Window, 0, len(t.ring)+1)
	for _, w := range t.ring {
		if startsIn(w.Start, since, until) {
			matching = append(matching, w)
		}
	}
	if t.folding && startsIn(t.open.start, since, until) {
		matching = append(matching, t.open.window())
	}
	total := len(matching)
	if limit > 0 && len(matching) > limit {
		matching = matching[len(matching)-limit:]
	}
	return matching, total, nil
}

// startsIn reports whether a window starting at start falls in [since,
// until), a zero bound being unbounded.
func startsIn(start, since, until time.Time) bool {
	return (since.IsZero() || !start.Before(since)) && (until.IsZero() || start.Before(until))
}

// tierWidths lists the configured downsampling widths. Callers hold mu.
func (s *Store) tierWidths() []time.Duration {
	ws := make([]time.Duration, len(s.tiers))
	for i, t := range s.tiers {
		ws[i] = t.width
	}
	return ws
}
