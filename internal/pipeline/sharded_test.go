package pipeline

import (
	"bytes"
	"math/rand/v2"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"videoplat/internal/fingerprint"
	"videoplat/internal/flowtable"
	"videoplat/internal/leakcheck"
	"videoplat/internal/packet"
	"videoplat/internal/quicproto"
	"videoplat/internal/tracegen"
)

func TestShardedPipelineClassifiesAllFlows(t *testing.T) {
	if testing.Short() {
		t.Skip("bank training is slow")
	}
	leakcheck.Check(t)
	bank, _ := trainSmallBank(t, 31, 0.02)
	s := NewShardedWithConfig(bank, 4, Config{})

	g := tracegen.New(77)
	want := map[string]string{}
	var all []*tracegen.FlowTrace
	specs := []struct {
		label string
		prov  fingerprint.Provider
		tr    fingerprint.Transport
	}{
		{"windows_chrome", fingerprint.YouTube, fingerprint.QUIC},
		{"windows_firefox", fingerprint.Netflix, fingerprint.TCP},
		{"iOS_nativeApp", fingerprint.Disney, fingerprint.TCP},
		{"androidTV_nativeApp", fingerprint.Amazon, fingerprint.TCP},
		{"macOS_safari", fingerprint.Amazon, fingerprint.TCP},
		{"ps5_nativeApp", fingerprint.Netflix, fingerprint.TCP},
	}
	for _, sp := range specs {
		ft, err := g.Flow(sp.label, sp.prov, sp.tr, tracegen.FlowSpec{PayloadFrames: 2})
		if err != nil {
			t.Fatal(err)
		}
		all = append(all, ft)
		want[ft.SNI] = sp.label
	}

	// Interleave packets across flows to force cross-shard concurrency.
	for j := 0; ; j++ {
		any := false
		for _, ft := range all {
			if j < len(ft.Frames) {
				s.HandlePacketBatch([]IngestPacket{{TS: ft.Start.Add(ft.Frames[j].Offset), Data: ft.Frames[j].Data}})
				any = true
			}
		}
		if !any {
			break
		}
	}

	done := make(chan map[string]Prediction)
	go func() {
		got := map[string]Prediction{}
		for rec := range s.Results() {
			got[rec.SNI] = rec.Prediction
		}
		done <- got
	}()
	s.Close()
	got := <-done

	if len(got) != len(want) {
		t.Fatalf("classified %d flows, want %d", len(got), len(want))
	}
	correct := 0
	for sni, truth := range want {
		if got[sni].Platform == truth {
			correct++
		}
	}
	if correct < len(want)-1 {
		t.Errorf("correct = %d/%d", correct, len(want))
	}
	if n := len(s.Flows()); n != len(want) {
		t.Errorf("flow records = %d", n)
	}
}

// shardHash is the hash Sharded's ingest places a key's frames by: of the
// words packet.Summary reads from a frame on that 5-tuple.
func shardHash(t *testing.T, k packet.FlowKey) uint64 {
	t.Helper()
	frame := craftFrame(netip.AddrPortFrom(k.Src, k.SrcPort), netip.AddrPortFrom(k.Dst, k.DstPort), k.Proto, packet.FlagACK, nil, 0)
	var sum packet.Summary
	if !sum.Decode(frame) || sum.Key != k {
		t.Fatalf("a frame crafted for %v summarizes to %v", k, sum.Key)
	}
	return hashWords(&sum.Words)
}

func TestHashKeySymmetric(t *testing.T) {
	g := tracegen.New(5)
	ft, err := g.Flow("ps5_nativeApp", fingerprint.Amazon, fingerprint.TCP, tracegen.FlowSpec{})
	if err != nil {
		t.Fatal(err)
	}
	k := ft.Key()
	if shardHash(t, k) != shardHash(t, k.Reverse()) {
		t.Error("hash not symmetric across directions")
	}
}

// TestHashKeyDistribution pins that shard placement spreads: keys drawn the
// way tracegen draws client tuples, and — the case that starves shards when
// the hash's low bits are weak — keys that differ only in consecutive client
// ports, land within a quarter of the mean on every shard of 2, 3, 4 and 8.
func TestHashKeyDistribution(t *testing.T) {
	const keys = 4096
	rng := rand.New(rand.NewPCG(5, 5))
	servers := []string{"203.0.113.10", "203.0.113.20", "203.0.113.30", "203.0.113.40"}
	drawn := make([]packet.FlowKey, keys)
	consecutive := make([]packet.FlowKey, keys)
	for i := range drawn {
		drawn[i] = packet.FlowKey{
			Src:     netip.AddrFrom4([4]byte{192, 168, 1, byte(2 + rng.IntN(250))}),
			Dst:     netip.MustParseAddr(servers[rng.IntN(len(servers))]),
			SrcPort: uint16(49152 + rng.IntN(16000)), DstPort: 443,
			Proto: [2]uint8{packet.ProtoTCP, packet.ProtoUDP}[rng.IntN(2)],
		}
		consecutive[i] = packet.FlowKey{
			Src: netip.MustParseAddr("10.1.2.3"), Dst: netip.MustParseAddr("93.184.216.34"),
			SrcPort: uint16(10000 + i), DstPort: 443, Proto: packet.ProtoTCP,
		}
	}
	for _, set := range []struct {
		name string
		keys []packet.FlowKey
	}{{"tracegen tuples", drawn}, {"consecutive client ports", consecutive}} {
		for _, shards := range []int{2, 3, 4, 8} {
			load := make([]int, shards)
			for _, k := range set.keys {
				load[shardHash(t, k)%uint64(shards)]++
			}
			mean := float64(keys) / float64(shards)
			for i, n := range load {
				if d := float64(n) - mean; d < -mean/4 || d > mean/4 {
					t.Errorf("%s over %d shards: shard %d holds %d keys, mean %.0f (loads %v)", set.name, shards, i, n, mean, load)
				}
			}
		}
	}
}

func TestShardedSingleShard(t *testing.T) {
	leakcheck.Check(t)
	bank := &Bank{}
	s := NewShardedWithConfig(bank, 0, Config{}) // clamps to 1
	if len(s.shards) != 1 {
		t.Fatalf("shards = %d", len(s.shards))
	}
	s.HandlePacketBatch([]IngestPacket{{TS: time.Now(), Data: []byte{1, 2, 3}}}) // garbage is fine
	s.Close()
	if got := len(s.Flows()); got != 0 {
		t.Errorf("flows = %d", got)
	}
}

// soakFrame is one frame of a rendered flow, with where copy n stamps itself
// in: the client's IPv4 address and the first bytes of each connection ID.
type soakFrame struct {
	off    time.Duration
	data   []byte
	client int   // offset of the client's address
	cids   []int // offsets of connection IDs, each at least 3 bytes long
}

// soakFrames prepares ft, an IPv4 QUIC flow, for copying: every frame with
// the offsets of the bytes that make copy n a flow of its own.
func soakFrames(t *testing.T, ft *tracegen.FlowTrace) []soakFrame {
	t.Helper()
	const payload = 14 + 20 + 8 // Ethernet, option-less IPv4, UDP
	var ids [][]byte
	for _, fr := range ft.Frames {
		if p := fr.Data[payload:]; quicproto.IsLongHeader(p) {
			cids, err := quicproto.ParseLongHeaderCIDs(p)
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, cids.DCID, cids.SCID)
		}
	}
	var out []soakFrame
	for _, fr := range ft.Frames {
		f := soakFrame{off: fr.Offset, data: fr.Data, client: 30}
		if fr.ClientToServer {
			f.client = 26
		}
		p := fr.Data[payload:]
		if quicproto.IsLongHeader(p) {
			if p[5] >= 3 { // the DCID's length
				f.cids = append(f.cids, payload+6)
			}
			if p[6+p[5]] >= 3 { // the SCID's length
				f.cids = append(f.cids, payload+7+int(p[5]))
			}
		} else {
			for _, id := range ids {
				if len(id) >= 3 && bytes.HasPrefix(p[1:], id) {
					f.cids = append(f.cids, payload+1)
					break
				}
			}
		}
		out = append(out, f)
	}
	return out
}

// TestShardedRouteCachesAge is the soak test of the ingest route caches a
// daemon that never restarts depends on. Every QUIC connection teaches
// cidRoute its IDs, and every migration that lands off its tuple hash
// teaches tupleRoute the new tuple; 2×maxCIDRoutes short 0-RTT flows that
// all migrate, copied from one render with their client addresses and
// connection IDs rewritten, teach both caches several times what either
// may hold. Every migration must still re-key its flow on the shard that
// owns it — a cache that stopped learning would send about half of the
// later ones to the other shard by tuple hash, as ghost flows — so
// Migrations advances by one per flow all the way, neither cache holds
// more than maxCIDRoutes entries, and each logical flow leaves exactly one
// FlowRecord, with every one of its frames counted.
func TestShardedRouteCachesAge(t *testing.T) {
	leakcheck.Check(t)
	ft := renderAdversarial(t, 5, "android_chrome", fingerprint.YouTube, fingerprint.QUIC,
		fingerprint.Options{ZeroRTT: true, Migration: true})
	if !ft.Migrated {
		t.Fatal("trace did not migrate")
	}
	tmpl := soakFrames(t, ft)
	size := 0
	for _, f := range tmpl {
		size += len(f.data)
	}

	var records, partial atomic.Int64
	count := func(rec *FlowRecord) {
		records.Add(1)
		if rec.PacketsUp+rec.PacketsDown != len(tmpl) {
			partial.Add(1)
		}
	}
	s := NewShardedWithConfig(emptyBank(), 2, Config{
		MaxFlows: 64,
		OnEvict:  func(rec *FlowRecord, _ flowtable.Reason) { count(rec) },
	})
	const (
		flows      = 2 * maxCIDRoutes
		perBatch   = 64 // flows per HandlePacketBatch
		checkEvery = maxCIDRoutes / 4
	)
	buf := make([]byte, 0, perBatch*size)
	var pkts []IngestPacket
feed:
	for n := 0; n < flows; n += perBatch {
		buf, pkts = buf[:0], pkts[:0]
		for c := n; c < n+perBatch; c++ {
			for _, f := range tmpl {
				start := len(buf)
				buf = append(buf, f.data...)
				b := buf[start:]
				b[f.client+1], b[f.client+2], b[f.client+3] = byte(c>>16), byte(c>>8), byte(c)
				for _, at := range f.cids {
					b[at] ^= byte(c >> 16)
					b[at+1] ^= byte(c >> 8)
					b[at+2] ^= byte(c)
				}
				ts := ft.Start.Add(time.Duration(c) * time.Millisecond).Add(f.off)
				pkts = append(pkts, IngestPacket{TS: ts, Data: b})
			}
		}
		s.HandlePacketBatch(pkts)
		if done := n + perBatch; done%checkEvery == 0 {
			s.SnapshotFlows() // every shard has run every batch sent so far
			if got := s.IngestStats().Migrations; got != uint64(done) {
				t.Errorf("after %d migrated flows, %d migrations: the route caches stopped routing them to their shard", done, got)
				break feed
			}
			if c, tu := s.cidRoute.len(), s.tupleRoute.len(); c > maxCIDRoutes || tu > maxCIDRoutes {
				t.Errorf("after %d flows the route caches hold %d CIDs and %d tuples, over the %d bound", done, c, tu, maxCIDRoutes)
				break feed
			}
		}
	}
	s.Close()
	for _, rec := range s.Flows() {
		count(rec)
	}
	if got := records.Load(); got != flows {
		t.Errorf("%d flow records for %d logical flows", got, flows)
	}
	if got := partial.Load(); got != 0 {
		t.Errorf("%d flow records count fewer than all %d frames of their flow", got, len(tmpl))
	}
	if st := s.TableStats(); st.Rekeyed != flows {
		t.Errorf("table rekeyed = %d, want %d", st.Rekeyed, flows)
	}
}

// TestSnapshotFlowsUpTo: a limited snapshot copies at most limit records
// from each shard, and they are the head of what SnapshotFlows lists for
// that shard.
func TestSnapshotFlowsUpTo(t *testing.T) {
	s := NewShardedWithConfig(emptyBank(), 2, Config{})
	defer s.Close()
	dst := netip.MustParseAddrPort("192.0.2.1:443")
	var pkts []IngestPacket
	for i := 0; i < 40; i++ {
		src := netip.AddrPortFrom(netip.AddrFrom4([4]byte{10, 0, 0, byte(i)}), 40000)
		pkts = append(pkts, IngestPacket{TS: time.Unix(1, 0),
			Data: craftFrame(src, dst, packet.ProtoTCP, packet.FlagSYN, nil, 0)})
	}
	s.HandlePacketBatch(pkts)
	all := s.SnapshotFlows()
	if len(all) != 40 {
		t.Fatalf("SnapshotFlows = %d records, want 40", len(all))
	}
	if n := len(s.SnapshotFlowsUpTo(40)); n != 40 {
		t.Errorf("SnapshotFlowsUpTo(40) = %d records, want 40", n)
	}
	page := s.SnapshotFlowsUpTo(3)
	if len(page) != 6 {
		t.Fatalf("SnapshotFlowsUpTo(3) over 2 shards = %d records, want 6", len(page))
	}
	// The second shard's records start where the first shard's end in the
	// full listing.
	second := 3
	for second < len(all) && all[second].Key != page[3].Key {
		second++
	}
	for i, rec := range page {
		at := i
		if i >= 3 {
			at = second + i - 3
		}
		if at >= len(all) || rec.Key != all[at].Key {
			t.Fatalf("record %d of the page is %v, not the head of its shard's listing", i, rec.Key)
		}
	}
}

// TestShardedWatermark feeds one flow, a frame every 10 s of packet time, to
// a four-shard pipeline with a 60 s idle timeout. After each batch the
// watermark is the flow's shard's last idle sweep less the timeout — the
// sweeps come at least a quarter timeout apart — and the three shards that
// never get a frame do not hold it back. OnWatermark sees it move, never
// backwards, and its last call carries the final value.
func TestShardedWatermark(t *testing.T) {
	const idle = 60 * time.Second
	s := NewShardedWithConfig(nil, 4, Config{IdleTimeout: idle})
	defer s.Close()
	var mu sync.Mutex
	var seen []time.Time
	s.OnWatermark(func(wm time.Time) {
		mu.Lock()
		seen = append(seen, wm)
		mu.Unlock()
	})
	if wm := s.Watermark(); !wm.IsZero() {
		t.Fatalf("watermark %v before any frame, want the zero Time", wm)
	}
	frame := tcpFrame(t, 50000, 443)
	t0 := time.Date(2023, 7, 7, 12, 0, 0, 0, time.UTC)
	sweep := t0
	for k := 0; k <= 30; k++ {
		ts := t0.Add(time.Duration(k) * 10 * time.Second)
		if ts.Sub(sweep) >= idle/4 {
			sweep = ts
		}
		s.HandlePacketBatch([]IngestPacket{{TS: ts, Data: frame}})
		s.SnapshotFlowsUpTo(0) // behind the batch on every shard
		if got, want := s.Watermark(), sweep.Add(-idle); !got.Equal(want) {
			t.Fatalf("frame %d at %v: watermark %v, want %v", k, ts.Format(time.TimeOnly), got, want)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) < 10 || !slices.IsSortedFunc(seen, time.Time.Compare) || !seen[len(seen)-1].Equal(sweep.Add(-idle)) {
		t.Errorf("OnWatermark saw %v", seen)
	}
}
