package pipeline

import (
	"math/rand/v2"
	"net/netip"
	"reflect"
	"testing"
	"time"

	"videoplat/internal/features"
	"videoplat/internal/fingerprint"
	"videoplat/internal/packet"
	"videoplat/internal/quicproto"
	"videoplat/internal/tracegen"
)

// tcpFlowFrames builds handcrafted frames for one TCP flow. Client frames
// originate from src:50000 -> dst:443; server frames are the reverse.
type tcpFlowFrames struct {
	src, dst netip.Addr
}

func newTCPFlowFrames() tcpFlowFrames {
	return tcpFlowFrames{
		src: netip.MustParseAddr("192.168.1.2"),
		dst: netip.MustParseAddr("203.0.113.40"),
	}
}

func (ff tcpFlowFrames) client(payload []byte, flags uint8) []byte {
	tcp := packet.TCP{SrcPort: 50000, DstPort: 443, Flags: flags, Window: 65535}
	seg := tcp.Append(nil, payload, ff.src, ff.dst)
	ip := packet.IPv4{TTL: 62, Protocol: packet.ProtoTCP, Src: ff.src, Dst: ff.dst}
	eth := packet.Ethernet{EtherType: packet.EtherTypeIPv4}
	return eth.Append(nil, ip.Append(nil, seg))
}

func (ff tcpFlowFrames) server(payload []byte, flags uint8) []byte {
	tcp := packet.TCP{SrcPort: 443, DstPort: 50000, Flags: flags, Window: 65535}
	seg := tcp.Append(nil, payload, ff.dst, ff.src)
	ip := packet.IPv4{TTL: 57, Protocol: packet.ProtoTCP, Src: ff.dst, Dst: ff.src}
	eth := packet.Ethernet{EtherType: packet.EtherTypeIPv4}
	return eth.Append(nil, ip.Append(nil, seg))
}

// TestStreamingSplitHelloWithServerInterleave pins the incremental
// assembler's streaming behaviour: a ClientHello split across three client
// segments with server packets interleaved classifies exactly once, on the
// client frame that completes the record — and the interleaved server
// packets neither advance nor disturb assembly.
func TestStreamingSplitHelloWithServerInterleave(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a bank")
	}
	bank := goldenBank(t)
	rng := rand.New(rand.NewPCG(1, 1))
	f, err := fingerprint.Generate(rng, "macOS_safari", fingerprint.Amazon, fingerprint.TCP, fingerprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	record := f.Hello.MarshalRecord()
	cut1, cut2 := len(record)/3, 2*len(record)/3

	ff := newTCPFlowFrames()
	type step struct {
		frame    []byte
		classify bool
	}
	steps := []step{
		{ff.client(nil, packet.FlagSYN), false},
		{ff.server(nil, packet.FlagSYN|packet.FlagACK), false},
		{ff.client(record[:cut1], packet.FlagACK|packet.FlagPSH), false},
		{ff.server([]byte{0xde, 0xad}, packet.FlagACK), false}, // server bytes mid-handshake
		{ff.client(record[cut1:cut2], packet.FlagACK|packet.FlagPSH), false},
		{ff.server(nil, packet.FlagACK), false},
		{ff.client(record[cut2:], packet.FlagACK|packet.FlagPSH), true},
		{ff.server([]byte{1, 2, 3}, packet.FlagACK), false}, // post-classification traffic
	}

	p := New(bank)
	ts := time.Date(2023, 7, 7, 0, 0, 0, 0, time.UTC)
	for i, s := range steps {
		rec, err := p.HandlePacket(ts, s.frame)
		if err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		if got := rec != nil; got != s.classify {
			t.Fatalf("step %d: classified=%v, want %v", i, got, s.classify)
		}
		if rec != nil && rec.SNI != f.SNI {
			t.Fatalf("step %d: SNI %q, want %q", i, rec.SNI, f.SNI)
		}
	}
	flows := p.Flows()
	if len(flows) != 1 || !flows[0].Classified {
		t.Fatalf("want 1 classified flow, got %+v", flows)
	}
	if flows[0].PacketsDown != 4 || flows[0].PacketsUp != 4 {
		t.Errorf("telemetry split wrong: up=%d down=%d", flows[0].PacketsUp, flows[0].PacketsDown)
	}
}

// endlessRecordChunk returns TCP payload bytes that look like the start of
// a huge handshake record: ParseRecord keeps reporting a truncated body, so
// the assembler keeps buffering — the scenario MaxHelloBytes bounds.
func endlessRecordChunk(first bool, n int) []byte {
	chunk := make([]byte, n)
	if first {
		chunk[0] = 22                   // handshake record
		chunk[1], chunk[2] = 0x03, 0x01 // legacy version
		chunk[3], chunk[4] = 0x3f, 0xff // record length far beyond what we send
	}
	return chunk
}

func TestMaxHelloBytesAbandonsOversizedFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a bank")
	}
	bank := goldenBank(t)
	p := NewWithConfig(bank, Config{MaxHelloBytes: 1024})
	ff := newTCPFlowFrames()
	ts := time.Date(2023, 7, 7, 0, 0, 0, 0, time.UTC)

	feed := func(frame []byte) {
		t.Helper()
		if rec, err := p.HandlePacket(ts, frame); err != nil || rec != nil {
			t.Fatalf("unexpected classification/err: %v %v", rec, err)
		}
	}
	feed(ff.client(nil, packet.FlagSYN))
	feed(ff.client(endlessRecordChunk(true, 600), packet.FlagACK|packet.FlagPSH))
	if got := p.Stats().Verdicts[VerdictOversized]; got != 0 {
		t.Fatalf("oversized after 600 buffered bytes = %d, want 0", got)
	}
	feed(ff.client(endlessRecordChunk(false, 600), packet.FlagACK|packet.FlagPSH))
	if got := p.Stats().Verdicts[VerdictOversized]; got != 1 {
		t.Fatalf("oversized after 1200 buffered bytes = %d, want 1", got)
	}
	// The flow is abandoned: more client bytes neither re-trigger assembly
	// nor bump the counter again.
	feed(ff.client(endlessRecordChunk(false, 600), packet.FlagACK|packet.FlagPSH))
	if got := p.Stats().Verdicts[VerdictOversized]; got != 1 {
		t.Fatalf("oversized counted twice: %d", got)
	}
	flows := p.Flows()
	if len(flows) != 1 || flows[0].Classified {
		t.Fatalf("oversized flow should be tracked but unclassified: %+v", flows)
	}
	// Telemetry still accumulates for the abandoned flow.
	if flows[0].PacketsUp != 4 {
		t.Errorf("telemetry stopped: packetsUp=%d, want 4", flows[0].PacketsUp)
	}
}

func TestMaxHelloBytesDisabledBuffersOn(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a bank")
	}
	bank := goldenBank(t)
	p := NewWithConfig(bank, Config{MaxHelloBytes: -1})
	ff := newTCPFlowFrames()
	ts := time.Date(2023, 7, 7, 0, 0, 0, 0, time.UTC)
	p.HandlePacket(ts, ff.client(nil, packet.FlagSYN))
	p.HandlePacket(ts, ff.client(endlessRecordChunk(true, 60000), packet.FlagACK|packet.FlagPSH))
	p.HandlePacket(ts, ff.client(endlessRecordChunk(false, 60000), packet.FlagACK|packet.FlagPSH))
	if got := p.Stats().Verdicts[VerdictOversized]; got != 0 {
		t.Fatalf("unbounded config still abandoned the flow: %d", got)
	}
}

// TestShardedOversizedCounter pins the counter's aggregation across shards
// and its surfacing through IngestStats.
func TestShardedOversizedCounter(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a bank")
	}
	bank := goldenBank(t)
	s := NewShardedWithConfig(bank, 2, Config{MaxHelloBytes: 512})
	ff := newTCPFlowFrames()
	ts := time.Date(2023, 7, 7, 0, 0, 0, 0, time.UTC)
	s.HandlePacket(ts, ff.client(nil, packet.FlagSYN))
	s.HandlePacket(ts, ff.client(endlessRecordChunk(true, 600), packet.FlagACK|packet.FlagPSH))
	s.Close()
	if got := s.IngestStats().OversizedHandshakes; got != 1 {
		t.Fatalf("sharded oversized_handshakes = %d, want 1", got)
	}
}

// clientFrames renders one flow and returns its client-direction frames.
func clientFrames(t *testing.T, seed uint64, tr fingerprint.Transport) [][]byte {
	t.Helper()
	ft, err := tracegen.New(seed).Flow("windows_chrome", fingerprint.YouTube, tr, tracegen.FlowSpec{PayloadFrames: 1})
	if err != nil {
		t.Fatal(err)
	}
	var frames [][]byte
	for _, fr := range ft.Frames {
		if fr.ClientToServer {
			frames = append(frames, fr.Data)
		}
	}
	return frames
}

// TestAssemblerAllocCeilings pins what assembling one whole flow allocates
// — only what the flow has to own until it is classified. TCP: the copy of
// its client bytes, and the ClientHello with its cipher suites and
// extensions, parsed where they lie in that copy. QUIC: the decrypted
// payload, the Initial's three cipher objects (crypto/aes cannot re-key
// one), the ClientHello's three, and the transport parameters with their
// list.
func TestAssemblerAllocCeilings(t *testing.T) {
	for _, c := range []struct {
		tr      fingerprint.Transport
		ceiling float64
	}{
		{fingerprint.TCP, 4},
		{fingerprint.QUIC, 9},
	} {
		frames := clientFrames(t, 7, c.tr)
		var (
			parser packet.Parser
			parsed packet.Parsed
			opener quicproto.Opener
		)
		assemble := func() bool {
			var a hsAssembler
			a.init()
			for _, fr := range frames {
				if a.consume(&parser, &parsed, &opener, fr) {
					return a.finish().Hello != nil
				}
			}
			return false
		}
		if !assemble() {
			t.Fatalf("%s: flow did not assemble", c.tr)
		}
		if n := testing.AllocsPerRun(50, func() { assemble() }); n > c.ceiling {
			t.Errorf("%s: assembling a flow allocates %.0f, want <= %.0f", c.tr, n, c.ceiling)
		}
	}
}

// TestAssembledHelloSurvivesLaterFlows is the copy-on-retain invariant: flow
// A completes, then the same parser, Opener and frame buffer (a recycled
// arena) carry other flows. What A's assembler handed to the classifier —
// and, through OnClassify, to a hook that may still be reading it — must not
// have moved.
func TestAssembledHelloSurvivesLaterFlows(t *testing.T) {
	for _, tr := range []fingerprint.Transport{fingerprint.TCP, fingerprint.QUIC} {
		var (
			parser packet.Parser
			parsed packet.Parsed
			opener quicproto.Opener
			arena  []byte // every frame is consumed from here, then overwritten
		)
		run := func(a *hsAssembler, seed uint64) *features.HandshakeInfo {
			a.init()
			for _, fr := range clientFrames(t, seed, tr) {
				arena = append(arena[:0], fr...)
				done := a.consume(&parser, &parsed, &opener, arena)
				clear(arena)
				if done {
					return a.finish()
				}
			}
			t.Fatalf("%s: flow %d did not assemble", tr, seed)
			return nil
		}
		var a, b, c hsAssembler
		info := run(&a, 7)
		before := features.Extract(info)
		run(&b, 8)
		run(&c, 9)
		if after := features.Extract(info); !reflect.DeepEqual(before, after) {
			t.Errorf("%s: flow A's handshake changed while later flows were assembled", tr)
		}
		var fresh hsAssembler
		if want := features.Extract(run(&fresh, 7)); !reflect.DeepEqual(before, want) {
			t.Errorf("%s: flow A extracted differently from a fresh assembly of the same frames", tr)
		}
	}
}
