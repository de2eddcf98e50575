package flowtable

import (
	"math"
	"net/netip"
	"testing"
	"time"

	"videoplat/internal/packet"
)

func key(i int) packet.FlowKey {
	return packet.FlowKey{
		Src:     netip.AddrFrom4([4]byte{192, 168, 1, byte(i)}),
		Dst:     netip.MustParseAddr("203.0.113.10"),
		SrcPort: uint16(50000 + i),
		DstPort: 443,
		Proto:   packet.ProtoTCP,
	}
}

var t0 = time.Date(2023, 7, 7, 12, 0, 0, 0, time.UTC)

func TestCapEvictsLRU(t *testing.T) {
	type ev struct {
		k packet.FlowKey
		r Reason
	}
	var evs []ev
	tb := New[int](Config{MaxFlows: 2}, func(k packet.FlowKey, v int, r Reason) {
		evs = append(evs, ev{k, r})
	})
	tb.Put(key(1), 1, t0)
	tb.Put(key(2), 2, t0.Add(time.Second))
	// Touch 1 so 2 becomes the LRU victim.
	if _, ok := tb.Touch(key(1), t0.Add(2*time.Second)); !ok {
		t.Fatal("flow 1 missing")
	}
	tb.Put(key(3), 3, t0.Add(3*time.Second))

	if tb.Len() != 2 {
		t.Fatalf("len = %d, want 2", tb.Len())
	}
	if len(evs) != 1 || evs[0].k != key(2) || evs[0].r != ReasonCap {
		t.Fatalf("evictions = %+v, want flow 2 by cap", evs)
	}
	if _, ok := tb.Touch(key(2), t0); ok {
		t.Error("evicted flow 2 still present")
	}
	st := tb.Stats()
	if st.Active != 2 || st.Inserted != 3 || st.EvictedCap != 1 || st.EvictedIdle != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestIdleExpiry(t *testing.T) {
	var evicted []packet.FlowKey
	tb := New[string](Config{IdleTimeout: time.Minute}, func(k packet.FlowKey, v string, r Reason) {
		if r != ReasonIdle {
			t.Errorf("reason = %v, want idle", r)
		}
		evicted = append(evicted, k)
	})
	tb.Put(key(1), "a", t0)
	tb.Put(key(2), "b", t0.Add(30*time.Second))

	if n := tb.ExpireIdle(t0.Add(45 * time.Second)); n != 0 {
		t.Fatalf("premature expiry of %d flows", n)
	}
	// 1 is 70s idle, 2 only 40s.
	if n := tb.ExpireIdle(t0.Add(70 * time.Second)); n != 1 {
		t.Fatalf("expired %d flows, want 1", n)
	}
	if len(evicted) != 1 || evicted[0] != key(1) {
		t.Fatalf("evicted = %v, want flow 1", evicted)
	}
	// Touching refreshes the idle clock.
	tb.Touch(key(2), t0.Add(80*time.Second))
	if n := tb.ExpireIdle(t0.Add(100 * time.Second)); n != 0 {
		t.Fatalf("touched flow expired (%d)", n)
	}
	if n := tb.ExpireIdle(t0.Add(141 * time.Second)); n != 1 {
		t.Fatalf("expired %d flows, want 1", n)
	}
	st := tb.Stats()
	if st.EvictedIdle != 2 || st.Evicted() != 2 || st.Active != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestUnboundedNeverEvicts(t *testing.T) {
	tb := New[int](Config{}, func(packet.FlowKey, int, Reason) {
		t.Error("eviction from unbounded table")
	})
	for i := 0; i < 1000; i++ {
		tb.Put(key(i), i, t0)
	}
	if tb.ExpireIdle(t0.Add(24*time.Hour)) != 0 {
		t.Error("idle expiry with zero timeout")
	}
	if tb.Len() != 1000 {
		t.Errorf("len = %d", tb.Len())
	}
}

func TestRangeMRUOrder(t *testing.T) {
	tb := New[int](Config{}, nil)
	for i := 1; i <= 3; i++ {
		tb.Put(key(i), i, t0.Add(time.Duration(i)*time.Second))
	}
	var got []int
	tb.Range(func(k packet.FlowKey, v int) bool {
		got = append(got, v)
		return true
	})
	if len(got) != 3 || got[0] != 3 || got[2] != 1 {
		t.Errorf("range order = %v, want [3 2 1]", got)
	}
}

// TestDrainEvictsOldestFirst: Drain empties the table through the eviction
// hook, least recently used first, and counts every flow as evicted, so
// Inserted = Active + Evicted still holds.
func TestDrainEvictsOldestFirst(t *testing.T) {
	var got []int
	tb := New[int](Config{IdleTimeout: time.Hour}, func(_ packet.FlowKey, v int, r Reason) {
		if r != ReasonDrain || r.String() != "drain" {
			t.Errorf("reason = %v, want drain", r)
		}
		got = append(got, v)
	})
	for i := 1; i <= 3; i++ {
		tb.Put(key(i), i, t0.Add(time.Duration(i)*time.Second))
	}
	tb.Touch(key(1), t0.Add(4*time.Second))
	tb.Drain()
	if len(got) != 3 || got[0] != 2 || got[1] != 3 || got[2] != 1 {
		t.Errorf("drain order = %v, want [2 3 1]", got)
	}
	st := tb.Stats()
	if tb.Len() != 0 || st.Active != 0 || st.EvictedDrain != 3 || st.Inserted != st.Active+st.Evicted() {
		t.Errorf("after drain: len %d, stats %+v", tb.Len(), st)
	}
}

func TestPutExistingOverwritesAndTouches(t *testing.T) {
	tb := New[int](Config{MaxFlows: 2, IdleTimeout: time.Minute}, nil)
	tb.Put(key(1), 1, t0)
	tb.Put(key(2), 2, t0.Add(time.Second))
	tb.Put(key(1), 11, t0.Add(2*time.Second)) // refresh, no eviction
	if st := tb.Stats(); st.Inserted != 2 || st.EvictedCap != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if v, ok := tb.Touch(key(1), t0.Add(2*time.Second)); !ok || v != 11 {
		t.Fatalf("value = %d, want 11", v)
	}
	// After the refresh at +2s, flow 1 outlives flow 2.
	tb.ExpireIdle(t0.Add(61*time.Second + 500*time.Millisecond))
	if _, ok := tb.Touch(key(1), t0); !ok {
		t.Error("refreshed flow expired")
	}
	if _, ok := tb.Touch(key(2), t0); ok {
		t.Error("stale flow survived")
	}
}

// TestUnixNanoSaturates pins the packet-clock conversion: exact wherever
// time.Time.UnixNano is, pinned to the int64 ends past them, and never
// reversing the order of two instants — so an idle sweep at a time no int64
// holds evicts as the nearest one it does.
func TestUnixNanoSaturates(t *testing.T) {
	lo, hi := time.Unix(0, math.MinInt64), time.Unix(0, math.MaxInt64)
	times := []time.Time{
		{}, // year 1
		time.Date(1000, 1, 1, 0, 0, 0, 0, time.UTC),
		lo.Add(-time.Second),
		lo,                      // in a second int64 holds only in part: saturates
		lo.Add(time.Second - 1), // in the first second held whole
		lo.Add(time.Second),
		time.Unix(-1, 999_999_999),
		time.Unix(0, 0),
		t0,
		t0.In(time.FixedZone("IST", 5*3600+1800)).Add(1),
		hi.Add(-2 * time.Second),
		hi.Add(-time.Second), // in the last second held whole
		hi,                   // saturates, as lo does
		hi.Add(1),
		time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC),
	}
	for i, ts := range times {
		got := UnixNano(ts)
		switch s := ts.Unix(); {
		case s < math.MinInt64/int64(time.Second):
			if got != math.MinInt64 {
				t.Errorf("UnixNano(%v) = %d, want math.MinInt64", ts, got)
			}
		case s >= math.MaxInt64/int64(time.Second):
			if got != math.MaxInt64 {
				t.Errorf("UnixNano(%v) = %d, want math.MaxInt64", ts, got)
			}
		default:
			if want := ts.UnixNano(); got != want {
				t.Errorf("UnixNano(%v) = %d, want %d", ts, got, want)
			}
		}
		if i > 0 && got < UnixNano(times[i-1]) {
			t.Errorf("UnixNano(%v) = %d is below UnixNano(%v) = %d", ts, got, times[i-1], UnixNano(times[i-1]))
		}
	}
}

// TestIdleClockAtTheEnds drives the idle clock with instants no int64 of
// nanoseconds holds: a year-1 flow is swept by a present-day clock, a
// present-day flow by a year-3000 one, and a year-1 sweep — an idle deadline
// before the clock's start — evicts nothing.
func TestIdleClockAtTheEnds(t *testing.T) {
	var evicted []int
	tb := New[int](Config{IdleTimeout: time.Minute}, func(_ packet.FlowKey, v int, _ Reason) { evicted = append(evicted, v) })
	year1, year3000 := time.Time{}, time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC)
	tb.Put(key(1), 1, year1)
	if n := tb.ExpireIdle(year1.Add(time.Hour)); n != 0 {
		t.Errorf("a sweep in year 1 evicted %d flows, want 0", n)
	}
	tb.Put(key(2), 2, t0)
	if n := tb.ExpireIdle(t0); n != 1 || len(evicted) != 1 || evicted[0] != 1 {
		t.Errorf("a present-day sweep evicted %v, want the year-1 flow", evicted)
	}
	if _, ok := tb.Touch(key(2), year1); !ok {
		t.Fatal("flow 2 missing")
	}
	tb.Put(key(3), 3, year3000)
	if n := tb.ExpireIdle(year3000); n != 1 || len(evicted) != 2 || evicted[1] != 2 {
		t.Errorf("a year-3000 sweep evicted %v, want the year-1 and present-day flows in that order", evicted)
	}
	if tb.Len() != 1 {
		t.Errorf("%d flows tracked, want the year-3000 one", tb.Len())
	}
}
