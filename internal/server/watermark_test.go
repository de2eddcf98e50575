package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"videoplat/internal/obs"
	"videoplat/internal/pcap"
	"videoplat/internal/telemetry"
)

// withoutLatency re-encodes a JSON window with its latency digest removed:
// classification latency is wall-clock time, the one part of a window that
// is not a function of the packets.
func withoutLatency(t *testing.T, raw []byte) string {
	t.Helper()
	var w map[string]any
	if err := json.Unmarshal(raw, &w); err != nil {
		t.Fatal(err)
	}
	delete(w, "latency")
	out, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestWindowsIndependentOfShardCount replays one synthetic trace through the
// daemon at 1, 2 and 4 shards. The windows seal on the shards' watermark, so
// the JSONL archive and the /windows listing must be byte-identical but for
// the latency digests, and no flow may land late: every record is in the
// window its LastSeen names.
func TestWindowsIndependentOfShardCount(t *testing.T) {
	if testing.Short() {
		t.Skip("bank training is slow")
	}
	bank := trainBank(t)
	var archive0, listing0 []string
	for _, shards := range []int{1, 2, 4} {
		res := replayInProcess(t, bank, synth(5, 40), Config{Shards: shards}, nil)
		var archive []string
		for _, line := range bytes.Split(bytes.TrimSpace(res.Archive), []byte("\n")) {
			archive = append(archive, withoutLatency(t, line))
		}
		var listing struct {
			Windows []json.RawMessage `json:"windows"`
		}
		if err := json.Unmarshal(res.Windows, &listing); err != nil {
			t.Fatal(err)
		}
		var listed []string
		for _, w := range listing.Windows {
			listed = append(listed, withoutLatency(t, w))
		}
		late := 0
		for _, line := range archive {
			var w telemetry.Window
			if err := json.Unmarshal([]byte(line), &w); err != nil {
				t.Fatal(err)
			}
			late += w.LateFlows
		}
		if late != 0 {
			t.Errorf("%d shards: %d late flows, want 0", shards, late)
		}
		if flows := res.Stats.FinalizedFlows; flows == 0 || len(archive) < 10 || len(listed) != len(archive) {
			t.Fatalf("%d shards: %d flows, %d windows archived, %d listed", shards, flows, len(archive), len(listed))
		}
		if archive0 == nil {
			archive0, listing0 = archive, listed
			continue
		}
		for name, pair := range map[string][2][]string{"archive": {archive0, archive}, "/windows": {listing0, listed}} {
			want, got := pair[0], pair[1]
			if len(got) != len(want) {
				t.Errorf("%d shards: %s holds %d windows, 1 shard %d", shards, name, len(got), len(want))
				continue
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("%d shards: %s window %d\n%s\n1 shard\n%s", shards, name, i, got[i], want[i])
				}
			}
		}
	}
}

// sealClock is a Sink recording, at every seal, the window's end and the
// shards' watermark as the sealing worker reads it.
type sealClock struct {
	mu    sync.Mutex
	srv   *Server
	seals [][2]time.Time // end, watermark
}

func (c *sealClock) WriteWindow(w *telemetry.Window) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seals = append(c.seals, [2]time.Time{w.End, c.srv.sharded.Watermark()})
	return nil
}

// openSampler is a Source that, before every frame it hands the replay,
// waits until every shard has processed the frames handed before it, then
// checks that the rollup holds no more windows open than its bound. Between
// two batches the open windows are a function of the frames alone, so
// maxOpen does not depend on how the shard workers were scheduled.
type openSampler struct {
	Source
	t       *testing.T
	srv     *Server
	maxOpen int
}

func (o *openSampler) Next() (pcap.Packet, error) {
	o.srv.sharded.SnapshotFlowsUpTo(0) // queued behind every frame handed so far
	n := o.srv.rollup.OpenWindows()
	o.maxOpen = max(o.maxOpen, n)
	if n > telemetry.MaxOpenWindows {
		o.t.Errorf("%d windows open, bound %d", n, telemetry.MaxOpenWindows)
	}
	return o.Source.Next()
}

// TestWindowsSealOnTime pins that a window seals while the replay runs, not
// at shutdown: at every seal the shards' watermark — the least of their last
// idle sweeps, less IdleTimeout — is within IdleTimeout/4 plus one width of
// the window's end. So the window sealed before the slowest shard's clock,
// which a sweep trails by under IdleTimeout/4, passed End + IdleTimeout +
// IdleTimeout/4 + one width. A design that held windows until the final
// Flush would seal the first ones with the watermark at the end of the
// trace. The replay hands over a few frames per batch, so that no shard's
// clock jumps a width in one batch, and the open windows stay within
// telemetry.MaxOpenWindows.
func TestWindowsSealOnTime(t *testing.T) {
	if testing.Short() {
		t.Skip("bank training is slow")
	}
	const (
		idle  = 40 * time.Second
		width = 30 * time.Second
	)
	clock := &sealClock{}
	src := &openSampler{Source: synth(11, 40), t: t}
	cfg := Config{Shards: 2, IdleTimeout: idle, WindowWidth: width, BatchSize: 4, Sink: clock}
	replayInProcess(t, trainBank(t), src, cfg, func(s *Server) { clock.srv, src.srv = s, s })

	if len(clock.seals) < 20 {
		t.Fatalf("%d windows sealed, want a replay long enough to judge", len(clock.seals))
	}
	onTime := 0
	for i, s := range clock.seals {
		end, wm := s[0], s[1]
		if lag := wm.Sub(end); lag >= idle/4+width {
			t.Errorf("window %d (end %v) sealed with the watermark %v past its end, want under %v",
				i, end.Format(time.TimeOnly), lag, idle/4+width)
		}
		if !wm.Before(end) {
			onTime++ // sealed by the watermark, not by the final Flush
		}
	}
	t.Logf("%d seals, %d on time, max open %d", len(clock.seals), onTime, src.maxOpen)
	if onTime < len(clock.seals)/2 {
		t.Errorf("only %d of %d windows sealed while the replay ran", onTime, len(clock.seals))
	}
	if src.maxOpen < 2 {
		t.Errorf("at most %d window open during the replay: the watermark never held one back", src.maxOpen)
	}
}

// TestSealEventsReplay runs one replay twice at two shards with a flow
// table small enough to evict at capacity. The seal's health events count
// what the sealed window holds — compactions of the windows sealed before
// it, capacity evictions of flows whose last packet is in it or before —
// so the two journals carry the same events with the same fields.
func TestSealEventsReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("bank training is slow")
	}
	bank := trainBank(t)
	events := func() []string {
		cfg := Config{Shards: 2, MaxFlows: 8, Store: telemetry.NewStore(telemetry.StoreConfig{Tiers: []time.Duration{2 * time.Minute}})}
		var out []string
		for _, ev := range replayInProcess(t, bank, synth(3, 60), cfg, nil).Events {
			if ev.Type == obs.EventEvictionPressure || ev.Type == obs.EventStoreCompaction {
				out = append(out, fmt.Sprint(ev.Type, ev.Fields))
			}
		}
		return out
	}
	first, second := events(), events()
	if !strings.Contains(strings.Join(first, "\n"), string(obs.EventEvictionPressure)) {
		t.Fatalf("no eviction_pressure event: %v", first)
	}
	if !slices.Equal(first, second) {
		t.Errorf("seal events differ between runs:\n%v\n%v", first, second)
	}
}
