// Package flowtable provides a bounded flow-state table for long-running
// packet processors. The batch pipeline can let its flow map grow for the
// lifetime of a finite trace, but a daemon tapping live traffic must bound
// per-flow state: this table caps the number of tracked flows (LRU eviction
// on overflow, the strategy of conntrack-style flow tables) and retires
// flows that have gone idle (no packets for a configurable timeout).
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

type entry[V any] struct {
	key        packet.FlowKey
	value      V
	lastSeen   time.Time
	prev, next *entry[V] // LRU list: head = most recent
}

// Table maps canonical flow keys to per-flow state with LRU + idle-timeout
// eviction. The zero value is not usable; create with New.
type Table[V any] struct {
	cfg     Config
	onEvict func(packet.FlowKey, V, Reason)

	entries    map[packet.FlowKey]*entry[V]
	head, tail *entry[V]

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
		entries: map[packet.FlowKey]*entry[V]{},
	}
}

// Len reports the number of tracked flows.
func (t *Table[V]) Len() int { return len(t.entries) }

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
	e, ok := t.entries[old]
	if !ok {
		return false
	}
	if _, exists := t.entries[new]; exists {
		return false
	}
	delete(t.entries, old)
	e.key = new
	t.entries[new] = e
	t.rekeyed.Add(1)
	return true
}

// Touch looks up a flow and, when present, marks it used at ts (refreshing
// both the LRU position and the idle clock).
func (t *Table[V]) Touch(key packet.FlowKey, ts time.Time) (V, bool) {
	e, ok := t.entries[key]
	if !ok {
		var zero V
		return zero, false
	}
	if ts.After(e.lastSeen) {
		e.lastSeen = ts
	}
	t.moveToFront(e)
	return e.value, true
}

// Put inserts a flow seen at ts. If the table is at its MaxFlows cap, the
// least recently used flow is evicted first (with ReasonCap). Inserting an
// existing key overwrites its state and touches it.
func (t *Table[V]) Put(key packet.FlowKey, value V, ts time.Time) {
	if e, ok := t.entries[key]; ok {
		e.value = value
		if ts.After(e.lastSeen) {
			e.lastSeen = ts
		}
		t.moveToFront(e)
		return
	}
	if t.cfg.MaxFlows > 0 {
		for len(t.entries) >= t.cfg.MaxFlows {
			t.evict(t.tail, ReasonCap)
		}
	}
	e := &entry[V]{key: key, value: value, lastSeen: ts}
	t.entries[key] = e
	t.pushFront(e)
	t.inserted.Add(1)
	t.active.Store(uint64(len(t.entries)))
}

// ExpireIdle evicts every flow whose last packet is at least IdleTimeout
// before now, returning how many were evicted. Because the LRU list is
// ordered by last-seen time, the scan stops at the first live flow; a sweep
// costs O(evicted + 1).
func (t *Table[V]) ExpireIdle(now time.Time) int {
	if t.cfg.IdleTimeout <= 0 {
		return 0
	}
	deadline := now.Add(-t.cfg.IdleTimeout)
	n := 0
	for t.tail != nil && !t.tail.lastSeen.After(deadline) {
		t.evict(t.tail, ReasonIdle)
		n++
	}
	return n
}

// Drain evicts every flow, least recently used first (ReasonDrain), so each
// leaves through the eviction hook as an idle or capped one would.
func (t *Table[V]) Drain() {
	for t.tail != nil {
		t.evict(t.tail, ReasonDrain)
	}
}

// Range calls f for each tracked flow, most recently used first, stopping
// early if f returns false. f must not mutate the table.
func (t *Table[V]) Range(f func(key packet.FlowKey, value V) bool) {
	for e := t.head; e != nil; e = e.next {
		if !f(e.key, e.value) {
			return
		}
	}
}

func (t *Table[V]) evict(e *entry[V], reason Reason) {
	t.unlink(e)
	delete(t.entries, e.key)
	t.active.Store(uint64(len(t.entries)))
	switch reason {
	case ReasonIdle:
		t.evictedIdle.Add(1)
	case ReasonCap:
		t.evictedCap.Add(1)
	default:
		t.evictedDrain.Add(1)
	}
	if t.onEvict != nil {
		t.onEvict(e.key, e.value, reason)
	}
}

func (t *Table[V]) pushFront(e *entry[V]) {
	e.prev, e.next = nil, t.head
	if t.head != nil {
		t.head.prev = e
	}
	t.head = e
	if t.tail == nil {
		t.tail = e
	}
}

func (t *Table[V]) unlink(e *entry[V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		t.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		t.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (t *Table[V]) moveToFront(e *entry[V]) {
	if t.head == e {
		return
	}
	t.unlink(e)
	t.pushFront(e)
}
