// Package flowtable provides a bounded flow-state table for long-running
// packet processors. The batch pipeline can let its flow map grow for the
// lifetime of a finite trace, but a daemon tapping live traffic must bound
// per-flow state: this table caps the number of tracked flows (LRU eviction
// on overflow, the strategy of conntrack-style flow tables) and retires
// flows that have gone idle (no packets for a configurable timeout).
//
// Storage is one slab of inline entries and one open-addressed index over
// it, and neither ever holds a dead flow: a freed slab slot is reused by the
// next insert, and a deleted index slot is closed up at once rather than
// left as a tombstone. So what a table holds depends only on the most flows
// it ever tracked at once, never on how many came and went — the property
// a daemon that never restarts needs, and one a Go map under insert/delete
// churn does not have (Go 1.24 maps grow to reclaim their tombstones).
//
// Time is caller-supplied — the table never reads the wall clock — so replay
// of historical traces evicts on trace time exactly as live capture evicts
// on wall time.
//
// The table itself is not safe for concurrent mutation (each pipeline shard
// owns one), but the eviction/occupancy counters in Stats are atomics, so an
// operations endpoint may read them from any goroutine while a shard is
// writing.
package flowtable

import (
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand/v2"
	"sync/atomic"
	"time"

	"videoplat/internal/packet"
)

// Reason says why a flow was evicted.
type Reason uint8

// Eviction reasons.
const (
	// ReasonIdle: no packet for at least the idle timeout.
	ReasonIdle Reason = iota
	// ReasonCap: the table was full and this was the least recently used
	// flow.
	ReasonCap
	// ReasonDrain: the owner emptied the table (Drain), e.g. at shutdown.
	ReasonDrain
)

// String names the reason.
func (r Reason) String() string {
	switch r {
	case ReasonIdle:
		return "idle"
	case ReasonCap:
		return "cap"
	}
	return "drain"
}

// Config bounds a Table. Zero values mean unbounded/never, which reproduces
// the batch pipeline's accumulate-everything behaviour.
type Config struct {
	// MaxFlows caps the number of tracked flows; inserting into a full
	// table evicts the least recently used flow first. 0 = unbounded.
	MaxFlows int
	// IdleTimeout retires flows that have not seen a packet for at least
	// this long, measured against caller-supplied timestamps. 0 = never.
	IdleTimeout time.Duration
}

// Stats are the table's occupancy and eviction counters. All fields are
// monotonic except Active. Safe to read concurrently via Table.Stats.
type Stats struct {
	Active       uint64 `json:"active"`        // flows currently tracked
	Inserted     uint64 `json:"inserted"`      // total flows ever inserted
	EvictedIdle  uint64 `json:"evicted_idle"`  // flows evicted by idle timeout
	EvictedCap   uint64 `json:"evicted_cap"`   // flows evicted by the MaxFlows cap
	EvictedDrain uint64 `json:"evicted_drain"` // flows evicted by Drain
	Rekeyed      uint64 `json:"rekeyed"`       // flows re-keyed by connection migration
}

// Evicted returns the total number of evictions. A flow leaves the table only
// by eviction, so Inserted = Active + Evicted whenever no call is mutating
// the table.
func (s Stats) Evicted() uint64 { return s.EvictedIdle + s.EvictedCap + s.EvictedDrain }

// none ends the LRU list and the free list.
const none int32 = -1

// minIndex is the slot count of a new table's index.
const minIndex = 8

// entry is one slab slot: a tracked flow, or a free slot chained through
// next.
type entry[V any] struct {
	key        packet.FlowKey
	value      V
	lastSeen   int64 // UnixNano of the flow's latest packet
	prev, next int32 // LRU list: head = most recent
}

// Table maps canonical flow keys to per-flow state with LRU + idle-timeout
// eviction. The zero value is not usable; create with New.
//
// Each flow is one inline entry of a slab (key, value, last-seen time as
// UnixNano and int32 LRU links); slots freed by eviction are reused before
// the slab grows, so once warm an insert allocates nothing. The index is a
// power-of-two array of 8-byte slots, each 32 hash bits and a slab id,
// linearly probed at no more than 3/4 load; deletion shifts the rest of the
// probe run back (Knuth, TAOCP vol. 3, §6.4, Algorithm R), so churn leaves
// no tombstones. A table that has tracked at most N flows at once holds N
// slab entries (plus append's spare capacity) and at most 8N/3 index slots,
// however many flows have passed through it.
type Table[V any] struct {
	cfg     Config
	onEvict func(packet.FlowKey, V, Reason)

	slab       []entry[V]
	free       int32 // first free slab slot
	head, tail int32
	live       int
	index      []uint64 // tag<<32 | slab id+1; 0 = empty
	seed       [2]uint64

	active       atomic.Uint64
	inserted     atomic.Uint64
	evictedIdle  atomic.Uint64
	evictedCap   atomic.Uint64
	evictedDrain atomic.Uint64
	rekeyed      atomic.Uint64
}

// New returns a Table bounded by cfg. onEvict, if non-nil, is called
// synchronously with each evicted flow's key, state and eviction reason —
// the hook through which final flow telemetry reaches a sink.
func New[V any](cfg Config, onEvict func(packet.FlowKey, V, Reason)) *Table[V] {
	return &Table[V]{
		cfg:     cfg,
		onEvict: onEvict,
		free:    none,
		head:    none,
		tail:    none,
		index:   make([]uint64, minIndex),
		// A per-table seed keeps the index layout out of reach of whoever
		// picks the 5-tuples, as a Go map's seed does.
		seed: [2]uint64{rand.Uint64(), rand.Uint64()},
	}
}

// Len reports the number of tracked flows.
func (t *Table[V]) Len() int { return t.live }

// Stats returns a snapshot of the counters. Safe from any goroutine.
func (t *Table[V]) Stats() Stats {
	return Stats{
		Active:       t.active.Load(),
		Inserted:     t.inserted.Load(),
		EvictedIdle:  t.evictedIdle.Load(),
		EvictedCap:   t.evictedCap.Load(),
		EvictedDrain: t.evictedDrain.Load(),
		Rekeyed:      t.rekeyed.Load(),
	}
}

// Rekey moves a flow's state from old to new without disturbing its LRU
// position, idle clock or the eviction counters — the flow is the same
// logical connection observed on a new 5-tuple (QUIC connection migration).
// It fails (returning false, touching nothing) when old is absent or new is
// already tracked; the caller decides whether a colliding new key means a
// ghost flow to merge or a true conflict.
func (t *Table[V]) Rekey(old, new packet.FlowKey) bool {
	slot, id := t.find(&old, t.hash(&old))
	if id == none {
		return false
	}
	tag := t.hash(&new)
	if _, other := t.find(&new, tag); other != none {
		return false
	}
	t.unindex(slot)
	t.slab[id].key = new
	t.place(tag, id)
	t.rekeyed.Add(1)
	return true
}

// Touch looks up a flow and, when present, marks it used at ts (refreshing
// both the LRU position and the idle clock).
func (t *Table[V]) Touch(key packet.FlowKey, ts time.Time) (V, bool) {
	_, id := t.find(&key, t.hash(&key))
	if id == none {
		var zero V
		return zero, false
	}
	e := &t.slab[id]
	if ns := UnixNano(ts); ns > e.lastSeen {
		e.lastSeen = ns
	}
	t.moveToFront(id)
	return e.value, true
}

// Put inserts a flow seen at ts. If the table is at its MaxFlows cap, the
// least recently used flow is evicted first (with ReasonCap). Inserting an
// existing key overwrites its state and touches it.
func (t *Table[V]) Put(key packet.FlowKey, value V, ts time.Time) {
	ns := UnixNano(ts)
	tag := t.hash(&key)
	if _, id := t.find(&key, tag); id != none {
		e := &t.slab[id]
		e.value = value
		if ns > e.lastSeen {
			e.lastSeen = ns
		}
		t.moveToFront(id)
		return
	}
	if t.cfg.MaxFlows > 0 {
		for t.live >= t.cfg.MaxFlows {
			t.evict(t.tail, ReasonCap)
		}
	}
	id := t.free
	if id != none {
		t.free = t.slab[id].next
	} else {
		t.slab = append(t.slab, entry[V]{})
		id = int32(len(t.slab) - 1)
	}
	t.slab[id] = entry[V]{key: key, value: value, lastSeen: ns}
	if 4*(t.live+1) > 3*len(t.index) {
		t.grow()
	}
	t.place(tag, id)
	t.pushFront(id)
	t.live++
	t.inserted.Add(1)
	t.active.Store(uint64(t.live))
}

// ExpireIdle evicts every flow whose last packet is at least IdleTimeout
// before now, returning how many were evicted. Because the LRU list is
// ordered by last-seen time, the scan stops at the first live flow; a sweep
// costs O(evicted + 1).
func (t *Table[V]) ExpireIdle(now time.Time) int {
	if t.cfg.IdleTimeout <= 0 {
		return 0
	}
	at := UnixNano(now)
	deadline := at - int64(t.cfg.IdleTimeout)
	if deadline > at {
		return 0 // now is within IdleTimeout of the clock's start: nothing is older
	}
	n := 0
	for t.tail != none && t.slab[t.tail].lastSeen <= deadline {
		t.evict(t.tail, ReasonIdle)
		n++
	}
	return n
}

// Drain evicts every flow, least recently used first (ReasonDrain), so each
// leaves through the eviction hook as an idle or capped one would.
func (t *Table[V]) Drain() {
	for t.tail != none {
		t.evict(t.tail, ReasonDrain)
	}
}

// Range calls f for each tracked flow, most recently used first, stopping
// early if f returns false. f must not mutate the table.
func (t *Table[V]) Range(f func(key packet.FlowKey, value V) bool) {
	for id := t.head; id != none; id = t.slab[id].next {
		if e := &t.slab[id]; !f(e.key, e.value) {
			return
		}
	}
}

// UnixNano is t.UnixNano() where that is defined, and saturates at the int64
// ends outside it, where time.Time.UnixNano's result is undefined: an instant
// in 1677-09-21 00:12:43 UTC or earlier reads math.MinInt64, one in
// 2262-04-11 23:47:16 UTC or later reads math.MaxInt64 (the two seconds that
// int64 nanoseconds hold only in part saturate whole). A packet clock fed
// from a capture file sees whatever times the file names, so every packet
// time this table or its callers keep goes through here; the mapping never
// reverses the order of two instants.
func UnixNano(t time.Time) int64 {
	const sec = int64(time.Second)
	switch s := t.Unix(); {
	case s < math.MinInt64/sec:
		return math.MinInt64
	case s >= math.MaxInt64/sec:
		return math.MaxInt64
	default:
		return s*sec + int64(t.Nanosecond())
	}
}

// evict removes the flow in slab slot id, frees the slot and then calls the
// hook, so the hook sees the table without the flow.
func (t *Table[V]) evict(id int32, reason Reason) {
	e := &t.slab[id]
	key, value := e.key, e.value
	slot, _ := t.find(&key, t.hash(&key))
	t.unlink(id)
	t.unindex(slot)
	*e = entry[V]{next: t.free} // drop the state's references for the collector
	t.free = id
	t.live--
	t.active.Store(uint64(t.live))
	switch reason {
	case ReasonIdle:
		t.evictedIdle.Add(1)
	case ReasonCap:
		t.evictedCap.Add(1)
	default:
		t.evictedDrain.Add(1)
	}
	if t.onEvict != nil {
		t.onEvict(key, value, reason)
	}
}

// hash returns a key's 32-bit index tag: one 64×64→128-bit multiply of the
// seeded address words, folded. An IPv4 key's two words are each injective
// in (address, port), so distinct IPv4 flows meet only in the multiply.
func (t *Table[V]) hash(k *packet.FlowKey) uint32 {
	s, d := k.Src.As16(), k.Dst.As16()
	a := binary.BigEndian.Uint64(s[8:]) ^ bits.RotateLeft64(binary.BigEndian.Uint64(s[:8]), 32) ^ uint64(k.SrcPort)<<48
	b := binary.BigEndian.Uint64(d[8:]) ^ bits.RotateLeft64(binary.BigEndian.Uint64(d[:8]), 32) ^ uint64(k.DstPort)<<48 ^ uint64(k.Proto)<<40
	hi, lo := bits.Mul64(a^t.seed[0], b^t.seed[1])
	return uint32((hi ^ lo) >> 32)
}

// find returns key's index slot and slab id, or, when key is absent, the
// empty slot that ends its probe run and none. The key is compared only
// where the tag matches.
func (t *Table[V]) find(key *packet.FlowKey, tag uint32) (int, int32) {
	mask := len(t.index) - 1
	for i := int(tag) & mask; ; i = (i + 1) & mask {
		s := t.index[i]
		if s == 0 {
			return i, none
		}
		if uint32(s>>32) == tag {
			if id := int32(uint32(s)) - 1; sameKey(&t.slab[id].key, key) {
				return i, id
			}
		}
	}
}

// sameKey is a == b, compared field by field so it inlines.
func sameKey(a, b *packet.FlowKey) bool {
	return a.Src == b.Src && a.Dst == b.Dst && a.SrcPort == b.SrcPort && a.DstPort == b.DstPort && a.Proto == b.Proto
}

// place indexes slab slot id under tag, in the first empty slot of the
// tag's probe run.
func (t *Table[V]) place(tag uint32, id int32) {
	mask := len(t.index) - 1
	i := int(tag) & mask
	for t.index[i] != 0 {
		i = (i + 1) & mask
	}
	t.index[i] = uint64(tag)<<32 | uint64(id+1)
}

// unindex empties index slot i and closes the gap: each later slot of the
// probe run whose home is not between the gap and itself moves into the
// gap, which moves to where it was (Algorithm R). Every run stays unbroken,
// and no slot is left marked deleted.
func (t *Table[V]) unindex(i int) {
	mask := len(t.index) - 1
	for j := (i + 1) & mask; t.index[j] != 0; j = (j + 1) & mask {
		s := t.index[j]
		if home := int(uint32(s>>32)) & mask; (j-home)&mask >= (j-i)&mask {
			t.index[i] = s
			i = j
		}
	}
	t.index[i] = 0
}

// grow doubles the index. Each slot carries its tag, so it is placed again
// without reading or hashing its key.
func (t *Table[V]) grow() {
	old := t.index
	t.index = make([]uint64, 2*len(old))
	for _, s := range old {
		if s != 0 {
			t.place(uint32(s>>32), int32(uint32(s))-1)
		}
	}
}

func (t *Table[V]) pushFront(id int32) {
	e := &t.slab[id]
	e.prev, e.next = none, t.head
	if t.head != none {
		t.slab[t.head].prev = id
	} else {
		t.tail = id
	}
	t.head = id
}

func (t *Table[V]) unlink(id int32) {
	e := &t.slab[id]
	if e.prev != none {
		t.slab[e.prev].next = e.next
	} else {
		t.head = e.next
	}
	if e.next != none {
		t.slab[e.next].prev = e.prev
	} else {
		t.tail = e.prev
	}
}

func (t *Table[V]) moveToFront(id int32) {
	if t.head == id {
		return
	}
	t.unlink(id)
	t.pushFront(id)
}
