package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"slices"
	"sort"
	"testing"
	"time"
)

// mapStore is the Store's retention and downsampling over the map merge,
// as the Store kept them before its tiers and Query folded windows into an
// openWindow: the raw ring keeps a Clone of every window, a downsampled
// tier Merges each window into a map-shaped open bucket, and a query
// Merges each step's windows into a fresh Window. It is the oracle of
// FuzzStoreMatchesMapMerge.
type mapStore struct {
	maxWindows int
	tiers      []*mapTier // the raw tier (width 0) first
}

type mapTier struct {
	width time.Duration
	ring  []*Window
	open  *Window
}

func newMapStore(maxWindows int, widths ...time.Duration) *mapStore {
	s := &mapStore{maxWindows: maxWindows, tiers: []*mapTier{{}}}
	for _, w := range widths {
		s.tiers = append(s.tiers, &mapTier{width: w})
	}
	return s
}

func (s *mapStore) add(w *Window) {
	s.tiers[0].insert(w.Clone())
	for _, t := range s.tiers[1:] {
		t.fold(w)
	}
	for _, t := range s.tiers {
		if over := len(t.ring) - s.maxWindows; over > 0 {
			t.ring = t.ring[over:]
		}
	}
}

func (t *mapTier) insert(w *Window) {
	i := sort.Search(len(t.ring), func(i int) bool { return t.ring[i].Start.After(w.Start) })
	t.ring = slices.Insert(t.ring, i, w)
}

func (t *mapTier) fold(w *Window) {
	start := bucketStart(w.Start, t.width)
	bounds := func(b *Window) { b.Start, b.End = start, start.Add(t.width) }
	if t.open != nil && w.Start.Before(t.open.Start) {
		if i := sort.Search(len(t.ring), func(i int) bool {
			return !t.ring[i].Start.Before(start)
		}); i < len(t.ring) && t.ring[i].Start.Equal(start) {
			merged := t.ring[i].Clone()
			merged.Merge(w)
			bounds(merged)
			t.ring[i] = merged
			return
		}
		late := &Window{}
		late.Merge(w)
		bounds(late)
		t.insert(late)
		return
	}
	if t.open != nil && !start.Equal(t.open.Start) {
		t.insert(t.open)
		t.open = nil
	}
	if t.open == nil {
		t.open = &Window{}
	}
	t.open.Merge(w)
	bounds(t.open)
}

// tier returns the tier width names, the raw tier for 0.
func (s *mapStore) tier(width time.Duration) *mapTier {
	for _, t := range s.tiers[1:] {
		if t.width == width {
			return t
		}
	}
	return s.tiers[0]
}

// windows lists a tier as Store.Windows does with no range and no limit.
func (s *mapStore) windows(width time.Duration) []*Window {
	t := s.tier(width)
	var out []*Window
	for _, w := range t.ring {
		out = append(out, w.Clone())
	}
	if t.open != nil {
		out = append(out, t.open.Clone())
	}
	return out
}

// query answers what res asked, from the tier res was served by: the
// source windows merge into step-aligned buckets, and the total series
// merges provider cells in name order.
func (s *mapStore) query(res *QueryResult) *QueryResult {
	want := *res
	want.SourceWindows = 0
	want.Series = []QuerySeries{}
	t := s.tier(time.Duration(res.TierSeconds * float64(time.Second)))
	step := time.Duration(res.StepSeconds * float64(time.Second))
	ring := append([]*Window(nil), t.ring...)
	if t.open != nil {
		ring = append(ring, t.open.Clone())
	}
	buckets := map[time.Time]*Window{}
	counts := map[time.Time]int{}
	for _, w := range ring {
		if (!res.Since.IsZero() && w.Start.Before(res.Since)) || (!res.Until.IsZero() && !w.Start.Before(res.Until)) {
			continue
		}
		want.SourceWindows++
		bs := bucketStart(w.Start, step)
		if buckets[bs] == nil {
			buckets[bs] = &Window{}
		}
		buckets[bs].Merge(w)
		buckets[bs].Start, buckets[bs].End = bs, bs.Add(step)
		counts[bs]++
	}
	series := map[string]*QuerySeries{}
	appendPoint := func(key string, p QueryPoint) {
		if series[key] == nil {
			series[key] = &QuerySeries{Key: key}
		}
		series[key].Points = append(series[key].Points, p)
	}
	starts := make([]time.Time, 0, len(buckets))
	for bs := range buckets {
		starts = append(starts, bs)
	}
	slices.SortFunc(starts, func(a, b time.Time) int { return a.Compare(b) })
	for _, bs := range starts {
		agg := buckets[bs]
		base := QueryPoint{Start: agg.Start, End: agg.End, Windows: counts[bs]}
		switch res.GroupBy {
		case GroupTotal:
			total := &Cell{}
			keys := make([]string, 0, len(agg.ByProvider))
			for key := range agg.ByProvider {
				keys = append(keys, key)
			}
			sort.Strings(keys)
			for _, key := range keys {
				total.Merge(agg.ByProvider[key])
			}
			p := base
			p.fromMapCell(total)
			p.Flows, p.ClassifiedFlows, p.LateFlows = agg.Flows, agg.ClassifiedFlows, agg.LateFlows
			p.fromLatency(agg.Latency)
			if q := agg.Quality; q != nil {
				if len(q.Verdicts) > 0 {
					p.Verdicts = q.Verdicts
				}
				p.DriftScore, p.ShadowAgreed, p.ShadowDisagreed = q.DriftScore, q.ShadowAgreed, q.ShadowDisagreed
			}
			appendPoint("total", p)
		case GroupProvider, GroupPlatform:
			cells := agg.ByProvider
			if res.GroupBy == GroupPlatform {
				cells = agg.ByPlatform
			}
			for key, c := range cells {
				p := base
				p.fromMapCell(c)
				appendPoint(key, p)
			}
		case GroupModel:
			for key, n := range agg.ModelVersions {
				p := base
				p.Flows = n
				appendPoint(key, p)
			}
		}
	}
	keys := make([]string, 0, len(series))
	for k := range series {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		want.Series = append(want.Series, *series[k])
	}
	return &want
}

// fromMapCell copies a merged cell's aggregates into the point.
func (p *QueryPoint) fromMapCell(c *Cell) {
	p.Flows = c.Flows
	p.ClassifiedFlows = c.ClassifiedFlows
	p.WatchSeconds = c.WatchSeconds
	p.BytesDown = c.BytesDown
	p.BytesUp = c.BytesUp
	p.MeanMbpsDown = c.MeanMbpsDown
	p.PeakMbpsDown = c.PeakMbpsDown
	p.AbstainedFlows = c.AbstainedFlows
	if att := c.ClassifiedFlows + c.AbstainedFlows; att > 0 {
		p.AbstainRate = float64(c.AbstainedFlows) / float64(att)
	}
	if c.Confidence != nil && c.Confidence.Count > 0 {
		p.ConfidenceCount = c.Confidence.Count
		p.ConfidenceP10 = c.Confidence.Quantile(0.10)
		p.ConfidenceP50 = c.Confidence.Quantile(0.50)
		p.ConfidenceMean = c.Confidence.Mean()
	}
}

// FuzzStoreMatchesMapMerge feeds byte-driven record streams through two
// Rollups into a Store with the raw tier and two downsampling tiers, and
// into mapStore, the map merge the Store's tiers replaced. One Rollup is
// live; the other runs behind it, and its windows are held, then written
// late or reloaded from a JSONL archive between live windows. Retention is
// small, so queries are also served from the coarse tiers. At every check,
// every tier's Windows listing and Query for every group-by at three steps
// must encode to identical JSON.
func FuzzStoreMatchesMapMerge(f *testing.F) {
	f.Add([]byte{0, 0x11, 3, 0x20, 10, 0x80, 0x0f, 1, 0x03, 0x42, 0x80, 0x91, 0x33, 0xc1, 0xe2, 2, 1, 0x29, 0x07, 0x28, 0xff, 0xe1})
	f.Add(bytes.Repeat([]byte{2, 0x4b, 0xf2, 0x85, 0x00, 0x33, 0x81, 1, 0x37, 0x12, 0x22, 0xff, 0x90, 0x2c, 0xc3, 0xf4}, 12))
	// Two hours of windows, a third of the records behind: raw and 5m
	// retention overflow, and held windows land in sealed buckets.
	var long []byte
	for i := range 180 {
		op := byte(0)
		if i%3 == 2 {
			op = 1
		}
		long = append(long, op, byte(i*37), byte(i*11), 40, byte(i*13+7), byte(i*29), byte(i*7|1))
		switch {
		case i%17 == 16:
			long = append(long, 0xd0) // reload the held windows
		case i%11 == 10:
			long = append(long, 0xc0) // write them late
		case i%23 == 22:
			long = append(long, 0xe0) // check
		}
	}
	f.Add(long)
	tiers := []time.Duration{5 * time.Minute, 20 * time.Minute}
	const maxWindows = 12
	f.Fuzz(func(t *testing.T, ops []byte) {
		encode := func(v any) string {
			raw, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			return string(raw)
		}
		sealed := 0
		enrich := func(w *Window) {
			sealed++
			w.Quality.DriftScore = float64(sealed%5) / 8
			w.Quality.ShadowAgreed = uint64(sealed % 3)
			w.Quality.ShadowDisagreed = uint64(sealed % 2)
		}
		s := NewStore(StoreConfig{MaxWindows: maxWindows, Tiers: tiers})
		m := newMapStore(maxWindows, tiers...)
		write := func(w *Window) error {
			m.add(w)
			return s.WriteWindow(w)
		}
		live := NewRollup(time.Minute, sinkFunc(func(w *Window) error {
			enrich(w)
			return write(w)
		}))
		var held []*Window
		behind := NewRollup(time.Minute, sinkFunc(func(w *Window) error {
			enrich(w)
			held = append(held, w)
			return nil
		}))

		check := func(step int) {
			for _, width := range append([]time.Duration{0}, tiers...) {
				got, _, err := s.Windows(time.Time{}, time.Time{}, width, 0)
				if err != nil {
					t.Fatal(err)
				}
				want := m.windows(width)
				if len(got) != len(want) {
					t.Fatalf("step %d: tier %v lists %d windows, map merge %d", step, width, len(got), len(want))
				}
				for i := range got {
					if g, w := encode(got[i]), encode(want[i]); g != w {
						t.Fatalf("step %d: tier %v window %d:\n%s\nmap merge\n%s", step, width, i, g, w)
					}
				}
			}
			for _, group := range []string{GroupTotal, GroupProvider, GroupPlatform, GroupModel} {
				for _, qstep := range []time.Duration{0, 5 * time.Minute, time.Hour} {
					res, err := s.Query(time.Time{}, time.Time{}, qstep, group)
					if err != nil {
						t.Fatal(err)
					}
					if g, w := encode(res), encode(m.query(res)); g != w {
						t.Fatalf("step %d: query step %v by %q:\n%s\nmap merge\n%s", step, qstep, group, g, w)
					}
				}
			}
		}

		clock, behindClock := w0, w0.Add(-30*time.Minute)
		for step := 0; len(ops) > 0; step++ {
			op := ops[0]
			ops = ops[1:]
			switch {
			case op < 0xc0: // a record, for the live Rollup or the one behind
				var b [6]byte
				ops = ops[copy(b[:], ops):]
				if op&1 == 0 {
					b[0] ^= op
					live.Add(fuzzRecord(b, &clock))
					live.Advance(clock.Add(-time.Minute)) // windows reach the store as they close
				} else {
					b[0] ^= op >> 1
					behind.Add(fuzzRecord(b, &behindClock))
					behind.Advance(behindClock.Add(-time.Minute))
				}
			case op < 0xd0: // the held windows, written late
				behind.Flush()
				for _, w := range held {
					if err := write(w); err != nil {
						t.Fatal(err)
					}
				}
				held = held[:0]
			case op < 0xe0: // the held windows, reloaded from their archive
				behind.Flush()
				var archive bytes.Buffer
				enc := json.NewEncoder(&archive)
				for _, w := range held {
					if err := enc.Encode(w); err != nil {
						t.Fatal(err)
					}
				}
				held = held[:0]
				sc := bufio.NewScanner(bytes.NewReader(archive.Bytes()))
				sc.Buffer(nil, 16<<20)
				for sc.Scan() {
					var w Window
					if err := json.Unmarshal(sc.Bytes(), &w); err != nil {
						t.Fatal(err)
					}
					m.add(&w)
				}
				if _, err := s.Reload(&archive); err != nil {
					t.Fatal(err)
				}
			case op < 0xf0:
				check(step)
			default:
				live.Flush()
			}
		}
		live.Flush()
		check(-1)
	})
}
