package flowtable

import (
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

func TestRangeMRUOrderAndDelete(t *testing.T) {
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
	tb.Clear()
	if tb.Len() != 0 || tb.Stats().Active != 0 {
		t.Error("clear left entries")
	}
	if st := tb.Stats(); st.Evicted() != 0 {
		t.Errorf("clear counted as eviction: %+v", st)
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
