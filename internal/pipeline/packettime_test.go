package pipeline

import (
	"sync"
	"testing"
	"time"

	"videoplat/internal/fingerprint"
	"videoplat/internal/flowtable"
	"videoplat/internal/tracegen"
)

// TestRecordTimesSpanInputInstants pins what a record says of packet time:
// FirstSeen and LastSeen are Equal to the earliest and the latest instant
// its frames carried, whatever order they came in, a frame older than the
// flow's first included, and both are in UTC whatever zone the caller's
// times were in. Each exit is checked: HandlePacket's classified record,
// the live view and the eviction hook.
func TestRecordTimesSpanInputInstants(t *testing.T) {
	bank := platformBank(t, "windows_chrome", fingerprint.TCP, "")
	ft, err := tracegen.New(62).Flow("windows_chrome", fingerprint.YouTube, fingerprint.TCP, tracegen.FlowSpec{PayloadFrames: 4})
	if err != nil {
		t.Fatal(err)
	}
	ist := time.FixedZone("IST", 5*3600+1800)
	base := time.Date(2024, 3, 1, 12, 0, 0, 123456789, ist)
	// Every frame a second (and a nanosecond) later than the one before it,
	// fed from the middle: the third frame, the newest, the rest in order,
	// and last the oldest, older than the flow's first.
	at := func(i int) time.Time { return base.Add(time.Duration(i)*time.Second + time.Duration(i)) }
	n := len(ft.Frames)
	order := []int{2, n - 1, 1}
	for i := 3; i < n-1; i++ {
		order = append(order, i)
	}
	order = append(order, 0)
	first, last := at(0), at(n-1)

	var evicted []*FlowRecord
	p := NewWithConfig(bank, Config{OnEvict: func(rec *FlowRecord, _ flowtable.Reason) { evicted = append(evicted, rec) }})
	var classified *FlowRecord
	seen := []time.Time{}
	for _, j := range order {
		rec, err := p.HandlePacket(at(j), ft.Frames[j].Data)
		if err != nil {
			t.Fatal(err)
		}
		seen = append(seen, at(j))
		if rec != nil {
			classified = rec
			lo, hi := seen[0], seen[0]
			for _, s := range seen {
				if s.Before(lo) {
					lo = s
				}
				if s.After(hi) {
					hi = s
				}
			}
			checkSpan(t, "classified record", rec, lo, hi)
		}
	}
	if classified == nil {
		t.Fatal("the flow was never classified")
	}
	live := p.Flows()
	if len(live) != 1 {
		t.Fatalf("%d flows tracked, want 1", len(live))
	}
	checkSpan(t, "live record", live[0], first, last)
	p.Drain()
	if len(evicted) != 1 {
		t.Fatalf("%d records evicted, want 1", len(evicted))
	}
	checkSpan(t, "evicted record", evicted[0], first, last)
}

// checkSpan checks that rec spans first to last, in UTC.
func checkSpan(t *testing.T, name string, rec *FlowRecord, first, last time.Time) {
	t.Helper()
	if !rec.FirstSeen.Equal(first) || !rec.LastSeen.Equal(last) {
		t.Errorf("%s spans %v to %v, want %v to %v", name, rec.FirstSeen, rec.LastSeen, first, last)
	}
	if rec.FirstSeen.Location() != time.UTC || rec.LastSeen.Location() != time.UTC {
		t.Errorf("%s times are in %v and %v, want UTC", name, rec.FirstSeen.Location(), rec.LastSeen.Location())
	}
}

// TestOutOfRangePacketTimes feeds frames stamped in year 1 and year 3000,
// outside what int64 Unix nanoseconds hold, through a Pipeline and a
// Sharded with an idle timeout, interleaved with frames of this century, as
// a crafted capture may. Nothing may panic, each record must span forwards,
// and every flow that enters the table must leave it with one verdict.
func TestOutOfRangePacketTimes(t *testing.T) {
	g := tracegen.New(71)
	var flows []*tracegen.FlowTrace
	for i := 0; i < 6; i++ {
		tr := fingerprint.TCP
		if i%2 == 1 {
			tr = fingerprint.QUIC
		}
		ft, err := g.Flow("android_chrome", fingerprint.YouTube, tr, tracegen.FlowSpec{PayloadFrames: 3})
		if err != nil {
			t.Fatal(err)
		}
		flows = append(flows, ft)
	}
	year1 := time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC)
	year3000 := time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC)
	now := time.Date(2024, 3, 1, 12, 0, 0, 0, time.UTC)
	stamps := []func(fi, i int) time.Time{
		func(int, int) time.Time { return year1 },
		func(int, int) time.Time { return year3000 },
		func(_, i int) time.Time { return time.Time{}.Add(time.Duration(i) * time.Second) },
		func(_, i int) time.Time { return year3000.Add(-time.Duration(i) * time.Hour) },
		func(_, i int) time.Time { // wanders across all three
			return [...]time.Time{now, year3000, year1}[i%3].Add(time.Duration(i) * time.Millisecond)
		},
		func(fi, i int) time.Time { return now.Add(time.Duration(fi*len(flows)+i) * time.Second) },
	}
	var pkts []IngestPacket
	for fi, ft := range flows {
		for i, fr := range ft.Frames {
			pkts = append(pkts, IngestPacket{TS: stamps[fi%len(stamps)](fi, i), Data: fr.Data})
		}
	}
	// The flows interleaved, so an out-of-range frame can sweep the table
	// while other flows are still open.
	var mixed []IngestPacket
	for i := 0; len(mixed) < len(pkts); i++ {
		off := 0
		for _, ft := range flows {
			if i < len(ft.Frames) {
				mixed = append(mixed, pkts[off+i])
			}
			off += len(ft.Frames)
		}
	}

	cfg := func(recs *[]*FlowRecord, mu *sync.Mutex) Config {
		return Config{
			IdleTimeout: time.Minute,
			MaxFlows:    4,
			OnEvict: func(rec *FlowRecord, _ flowtable.Reason) {
				mu.Lock()
				*recs = append(*recs, rec)
				mu.Unlock()
			},
		}
	}
	check := func(name string, recs []*FlowRecord, inserted uint64, verdicts [NumVerdicts]uint64) {
		t.Helper()
		if uint64(len(recs)) != inserted || inserted == 0 {
			t.Errorf("%s: %d records for %d flows inserted", name, len(recs), inserted)
		}
		var sum uint64
		for _, n := range verdicts {
			sum += n
		}
		if sum != inserted {
			t.Errorf("%s: verdicts sum to %d, want %d", name, sum, inserted)
		}
		for _, rec := range recs {
			if rec.Verdict == VerdictPending {
				t.Errorf("%s: flow %v left undecided", name, rec.Key)
			}
			if rec.LastSeen.Before(rec.FirstSeen) {
				t.Errorf("%s: flow %v spans %v to %v", name, rec.Key, rec.FirstSeen, rec.LastSeen)
			}
		}
	}

	var mu sync.Mutex
	var recs []*FlowRecord
	p := NewWithConfig(emptyBank(), cfg(&recs, &mu))
	for _, pkt := range mixed {
		p.HandlePacket(pkt.TS, pkt.Data)
	}
	p.Drain()
	check("Pipeline", recs, p.TableStats().Inserted, p.Stats().Verdicts)

	var srecs []*FlowRecord
	s := NewShardedWithConfig(emptyBank(), 2, cfg(&srecs, &mu))
	s.HandlePacketBatch(mixed)
	s.Drain()
	s.Close()
	check("Sharded", srecs, s.TableStats().Inserted, s.IngestStats().Verdicts)
}
