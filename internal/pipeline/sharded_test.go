package pipeline

import (
	"math/rand/v2"
	"net/netip"
	"testing"
	"time"

	"videoplat/internal/fingerprint"
	"videoplat/internal/packet"
	"videoplat/internal/tracegen"
)

func TestShardedPipelineClassifiesAllFlows(t *testing.T) {
	if testing.Short() {
		t.Skip("bank training is slow")
	}
	bank, _ := trainSmallBank(t, 31, 0.02)
	s := NewSharded(bank, 4)

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
				s.HandlePacket(ft.Start.Add(ft.Frames[j].Offset), ft.Frames[j].Data)
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
	bank := &Bank{models: map[bankKey]*Model{}}
	s := NewSharded(bank, 0) // clamps to 1
	if len(s.shards) != 1 {
		t.Fatalf("shards = %d", len(s.shards))
	}
	s.HandlePacket(time.Now(), []byte{1, 2, 3}) // garbage is fine
	s.Close()
	if got := len(s.Flows()); got != 0 {
		t.Errorf("flows = %d", got)
	}
}
