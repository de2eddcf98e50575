package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// StoreConfig tunes a Store's retention and downsampling.
type StoreConfig struct {
	// MaxWindows caps how many windows each tier retains (default 1024;
	// <0 = unbounded). The oldest windows are evicted first.
	MaxWindows int
	// MaxAge evicts windows whose End is older than the newest stored
	// window's End minus MaxAge (0 = no age limit). Age is measured in
	// trace time, so replays age out history exactly as live traffic would.
	MaxAge time.Duration
	// Tiers are the downsampling resolutions (e.g. 10m, 1h): every raw
	// window is folded into one bucket per tier, and a bucket seals into
	// the tier's ring once a window at or past its end arrives. Widths
	// should be ascending multiples of the rollup window width so bucket
	// boundaries align. Nil means no downsampling (raw tier only).
	Tiers []time.Duration
}

// tier is one retention ring: sealed windows in ascending Start order plus,
// for downsampled tiers, the in-progress bucket, folded in an openWindow
// the tier reuses from bucket to bucket.
type tier struct {
	width       time.Duration // 0 for the raw tier
	ring        []*Window
	open        openWindow // current partial bucket, while folding
	folding     bool       // downsampled tiers only, once a window arrived
	compactions uint64     // buckets sealed into ring
	evictions   uint64     // windows dropped by retention: history is incomplete
}

// Store retains sealed rollup windows for live querying: a bounded
// in-memory ring of raw windows plus optional coarser downsampling tiers,
// with count- and age-based retention. It implements Sink, so it sits
// directly behind a Rollup, alone or fanned out with MultiSink alongside a
// JSONL archive — which Reload replays into a fresh store, so history
// survives restarts.
//
// The raw tier retains each accepted window as it is, and every
// downsampling tier folds it into its current bucket. Windows in a ring
// are sealed and never modified (a late window's bucket is rebuilt and
// replaced), so Windows hands out the retained windows themselves, and
// readers copy the ring's pointers under mu and merge after releasing it.
// Store is safe for concurrent use.
type Store struct {
	mu    sync.Mutex
	cfg   StoreConfig
	raw   *tier
	tiers []*tier // downsampled, ascending width; excludes raw

	rawWidth   time.Duration // width of the first accepted window
	latest     time.Time     // newest End seen, the age-retention anchor
	evictCount uint64
	evictAge   uint64
	loaded     int
	tornTail   int64      // bytes of unterminated final lines Reload dropped
	refold     openWindow // a late window's bucket, rebuilt
}

// NewStore returns a Store with cfg's retention and tiers. Tier widths are
// sorted ascending and non-positive or duplicate widths are dropped.
func NewStore(cfg StoreConfig) *Store {
	if cfg.MaxWindows == 0 {
		cfg.MaxWindows = 1024
	}
	widths := append([]time.Duration(nil), cfg.Tiers...)
	sort.Slice(widths, func(i, j int) bool { return widths[i] < widths[j] })
	s := &Store{cfg: cfg, raw: &tier{}}
	var prev time.Duration
	for _, w := range widths {
		if w <= 0 || w == prev {
			continue
		}
		s.tiers = append(s.tiers, &tier{width: w})
		prev = w
	}
	return s
}

// WriteWindow accepts one sealed window: the raw ring retains it, every
// downsampling tier folds it, and retention is enforced. w must not be
// modified afterwards. Implements Sink; it never fails.
func (s *Store) WriteWindow(w *Window) error {
	s.mu.Lock()
	s.add(w)
	s.mu.Unlock()
	return nil
}

// add folds one window into every tier and applies retention. Callers must
// hold mu.
func (s *Store) add(w *Window) {
	if s.rawWidth == 0 {
		if d := w.End.Sub(w.Start); d > 0 {
			s.rawWidth = d
		}
	}
	if w.End.After(s.latest) {
		s.latest = w.End
	}
	s.raw.insert(w)
	for _, t := range s.tiers {
		t.fold(w, &s.refold)
	}
	s.retain()
}

// insert places w in the ring preserving ascending Start order. Windows
// almost always arrive in order (the rollup seals sequentially; reload then
// live can interleave), so this is an append in the common case.
func (t *tier) insert(w *Window) {
	n := len(t.ring)
	if n == 0 || !w.Start.Before(t.ring[n-1].Start) {
		t.ring = append(t.ring, w)
		return
	}
	i := sort.Search(n, func(i int) bool { return t.ring[i].Start.After(w.Start) })
	t.ring = append(t.ring, nil)
	copy(t.ring[i+1:], t.ring[i:])
	t.ring[i] = w
}

// fold merges w into the tier's bucket containing w.Start, sealing the
// previous bucket when w has moved past it (empty gap buckets are skipped,
// mirroring the rollup). A window arriving before the open bucket — reload
// interleaving with live windows — is folded in scratch into a fresh sealed
// bucket of its own rather than reopening history, or, when its bucket is
// already sealed, into a rebuilt one that replaces it: a window in the
// ring is never modified, which is what lets Query merge ring windows
// outside mu.
func (t *tier) fold(w *Window, scratch *openWindow) {
	start := bucketStart(w.Start, t.width)
	if t.folding && start.Before(t.open.start) {
		scratch.reset(start, start.Add(t.width))
		i := sort.Search(len(t.ring), func(i int) bool { return !t.ring[i].Start.Before(start) })
		if i < len(t.ring) && t.ring[i].Start.Equal(start) {
			scratch.merge(t.ring[i])
			scratch.merge(w)
			t.ring[i] = scratch.window()
			return
		}
		scratch.merge(w)
		t.insert(scratch.window())
		t.compactions++
		return
	}
	if t.folding && !start.Equal(t.open.start) {
		t.insert(t.open.window())
		t.compactions++
		t.folding = false
	}
	if !t.folding {
		t.open.reset(start, start.Add(t.width))
		t.folding = true
	}
	t.open.merge(w)
}

// bucketStart aligns ts to a width boundary: a rollup window's start, and a
// downsampling tier's bucket.
func bucketStart(ts time.Time, width time.Duration) time.Time {
	start := ts.Truncate(width)
	if ts.Before(start) { // Truncate rounds toward zero; guard pre-epoch times
		start = start.Add(-width)
	}
	return start
}

// retain enforces count and age retention on every tier. Callers hold mu.
func (s *Store) retain() {
	cutoff := time.Time{}
	if s.cfg.MaxAge > 0 {
		cutoff = s.latest.Add(-s.cfg.MaxAge)
	}
	for _, t := range append([]*tier{s.raw}, s.tiers...) {
		if s.cfg.MaxWindows > 0 {
			for len(t.ring) > s.cfg.MaxWindows {
				t.ring[0] = nil
				t.ring = t.ring[1:]
				t.evictions++
				s.evictCount++
			}
		}
		if !cutoff.IsZero() {
			for len(t.ring) > 0 && !t.ring[0].End.After(cutoff) {
				t.ring[0] = nil
				t.ring = t.ring[1:]
				t.evictions++
				s.evictAge++
			}
		}
	}
}

// Reload replays JSONL-encoded windows (the JSONLSink format) into the
// store, returning how many were loaded. Call before serving traffic to
// restore a previous run's history; reloaded windows follow the normal
// downsampling and retention paths and are written to no sink.
//
// Only newline-terminated lines are records. An unterminated final
// fragment — what a crash or a full disk leaves mid-append — is dropped
// whether or not it parses, and its length is counted in
// StoreStats.TruncatedTailBytes; the caller truncating the file to its
// last complete line before appending is what keeps the archive whole. A
// terminated line that does not parse is an error.
func (s *Store) Reload(r io.Reader) (int, error) {
	var tail int
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16<<20) // windows with many cells exceed the default line cap
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		if atEOF && bytes.IndexByte(data, '\n') < 0 {
			tail += len(data)
			return len(data), nil, nil
		}
		return bufio.ScanLines(data, false)
	})
	n, lineNo := 0, 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var w Window
		if err := json.Unmarshal(line, &w); err != nil {
			return n, fmt.Errorf("telemetry: store reload line %d: %w", lineNo, err)
		}
		s.mu.Lock()
		s.add(&w)
		s.loaded++
		s.mu.Unlock()
		n++
	}
	if err := sc.Err(); err != nil {
		return n, fmt.Errorf("telemetry: store reload: %w", err)
	}
	s.mu.Lock()
	s.tornTail += int64(tail)
	s.mu.Unlock()
	return n, nil
}

// TierStats describes one retention tier's occupancy.
type TierStats struct {
	// WidthSeconds is the tier's bucket width (the rollup window width for
	// the raw tier).
	WidthSeconds float64 `json:"width_seconds"`
	// Windows is how many sealed windows the tier retains (the open
	// partial bucket of a downsampled tier is counted separately).
	Windows int `json:"windows"`
	// OpenBucket reports whether a partial downsampled bucket is in
	// progress (always false for the raw tier).
	OpenBucket bool `json:"open_bucket,omitempty"`
	// OldestStart/NewestEnd bound the tier's retained range.
	OldestStart time.Time `json:"oldest_start,omitzero"`
	NewestEnd   time.Time `json:"newest_end,omitzero"`
	// Compactions counts buckets sealed into this tier (0 for raw).
	Compactions uint64 `json:"compactions,omitempty"`
}

// StoreStats is the store's occupancy/eviction/compaction counter snapshot,
// surfaced through /stats and /metrics.
type StoreStats struct {
	// Tiers lists per-tier occupancy, raw tier first then ascending width.
	Tiers []TierStats `json:"tiers"`
	// EvictedCount / EvictedAge count windows evicted by the MaxWindows
	// cap and the MaxAge horizon respectively, across all tiers.
	EvictedCount uint64 `json:"evicted_count"`
	EvictedAge   uint64 `json:"evicted_age"`
	// Compactions counts downsampled buckets sealed, across all tiers.
	Compactions uint64 `json:"compactions"`
	// LoadedWindows is how many windows Reload restored at startup.
	LoadedWindows int `json:"loaded_windows,omitempty"`
	// TruncatedTailBytes is the length of the unterminated final line
	// Reload dropped: a torn archive tail, not a window.
	TruncatedTailBytes int64 `json:"truncated_tail_bytes,omitempty"`
}

// Stats snapshots the store's occupancy and counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := StoreStats{
		EvictedCount:       s.evictCount,
		EvictedAge:         s.evictAge,
		LoadedWindows:      s.loaded,
		TruncatedTailBytes: s.tornTail,
	}
	for _, t := range append([]*tier{s.raw}, s.tiers...) {
		ts := TierStats{Windows: len(t.ring), OpenBucket: t.folding, Compactions: t.compactions}
		if t.width > 0 {
			ts.WidthSeconds = t.width.Seconds()
		} else {
			ts.WidthSeconds = s.rawWidth.Seconds()
		}
		if len(t.ring) > 0 {
			ts.OldestStart = t.ring[0].Start
			ts.NewestEnd = t.ring[len(t.ring)-1].End
		}
		if t.folding {
			if ts.OldestStart.IsZero() {
				ts.OldestStart = t.open.start
			}
			if t.open.end.After(ts.NewestEnd) {
				ts.NewestEnd = t.open.end
			}
		}
		st.Compactions += t.compactions
		st.Tiers = append(st.Tiers, ts)
	}
	return st
}

// Latest returns the newest window End the store has seen (zero before any
// window arrives) — the reference point for relative ("last 30m") queries,
// in trace time.
func (s *Store) Latest() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.latest
}
