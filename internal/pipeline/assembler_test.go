package pipeline

import (
	"math/rand/v2"
	"net/netip"
	"reflect"
	"runtime"
	"testing"
	"time"

	"videoplat/internal/features"
	"videoplat/internal/fingerprint"
	"videoplat/internal/packet"
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

// frameLender is the borrow contract as a test input. An entry point only
// borrows the frames it is handed — what it keeps it must copy — so the
// lender hands every frame over in one reused buffer and overwrites that
// buffer with 0xA5 the moment the entry point returns, as a capture ring
// reuses its slots. State that still aliases a frame then reads poison, and
// the flow it belonged to ends on a different verdict than its frames say.
type frameLender struct {
	buf  []byte
	pkts []IngestPacket
}

// batch lends pkts to handle as one call's worth of frames.
func (l *frameLender) batch(pkts []IngestPacket, handle func([]IngestPacket)) {
	l.buf, l.pkts = l.buf[:0], l.pkts[:0]
	for _, pkt := range pkts {
		l.buf = append(l.buf, pkt.Data...)
	}
	off := 0
	for _, pkt := range pkts {
		l.pkts = append(l.pkts, IngestPacket{TS: pkt.TS, Data: l.buf[off : off+len(pkt.Data)]})
		off += len(pkt.Data)
	}
	handle(l.pkts)
	for i := range l.buf {
		l.buf[i] = 0xA5
	}
}

// each lends pkts to handle one frame per call.
func (l *frameLender) each(pkts []IngestPacket, handle func(ts time.Time, frame []byte)) {
	for i := range pkts {
		l.batch(pkts[i:i+1], func(one []IngestPacket) { handle(one[0].TS, one[0].Data) })
	}
}

// eachRecycled lends pkts to a Sharded one frame per HandlePacket call and
// makes each call pack into the arena the call before it used. A busy tap
// gets that recycling by volume; here a SnapshotFlows round trip after every
// frame waits until the worker has put the batch back, and one P makes
// sync.Pool hand that very batch to the next call (its caches are per P, so
// with more the worker's put can sit where ingest never looks). Under the
// race detector the pool drops a quarter of its puts and the reuse is only
// usual.
func (l *frameLender) eachRecycled(s *Sharded, pkts []IngestPacket) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	l.each(pkts, func(ts time.Time, frame []byte) {
		s.HandlePacket(ts, frame)
		s.SnapshotFlows()
	})
}

// splitHelloIndex is the frame of splitHelloPackets that completes the hello.
const splitHelloIndex = 6

// splitHelloPackets is one TCP flow whose ClientHello record spans three
// client segments, server packets in between, a millisecond apart from
// start; it returns the hello's SNI beside the frames. A flow like this is
// what makes frame retention visible: between its first segment and its
// last, the caller's buffer (frameLender) and a Sharded's batch arena have
// both been handed on.
func splitHelloPackets(t testing.TB, start time.Time) ([]IngestPacket, string) {
	t.Helper()
	rng := rand.New(rand.NewPCG(1, 1))
	f, err := fingerprint.Generate(rng, "macOS_safari", fingerprint.Amazon, fingerprint.TCP, fingerprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	record := f.Hello.MarshalRecord()
	cut1, cut2 := len(record)/3, 2*len(record)/3

	ff := newTCPFlowFrames()
	var pkts []IngestPacket
	for i, frame := range [][]byte{
		ff.client(nil, packet.FlagSYN),
		ff.server(nil, packet.FlagSYN|packet.FlagACK),
		ff.client(record[:cut1], packet.FlagACK|packet.FlagPSH),
		ff.server([]byte{0xde, 0xad}, packet.FlagACK), // server bytes mid-handshake
		ff.client(record[cut1:cut2], packet.FlagACK|packet.FlagPSH),
		ff.server(nil, packet.FlagACK),
		ff.client(record[cut2:], packet.FlagACK|packet.FlagPSH), // splitHelloIndex
		ff.server([]byte{1, 2, 3}, packet.FlagACK),              // post-classification traffic
	} {
		pkts = append(pkts, IngestPacket{TS: start.Add(time.Duration(i) * time.Millisecond), Data: frame})
	}
	return pkts, f.SNI
}

// TestStreamingSplitHelloWithServerInterleave pins the incremental
// assembler's streaming behaviour: a ClientHello split across three client
// segments with server packets interleaved classifies exactly once, on the
// client frame that completes the record — and the interleaved server
// packets neither advance nor disturb assembly. Every frame is lent
// (frameLender), so a first segment the assembler aliased instead of copying
// is poison by the time the last one arrives.
func TestStreamingSplitHelloWithServerInterleave(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a bank")
	}
	bank := goldenBank(t)
	pkts, sni := splitHelloPackets(t, time.Date(2023, 7, 7, 0, 0, 0, 0, time.UTC))

	p := New(bank)
	step := 0
	new(frameLender).each(pkts, func(ts time.Time, frame []byte) {
		rec, err := p.HandlePacket(ts, frame)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if got, want := rec != nil, step == splitHelloIndex; got != want {
			t.Fatalf("step %d: classified=%v, want %v", step, got, want)
		}
		if rec != nil && rec.SNI != sni {
			t.Fatalf("step %d: SNI %q, want %q", step, rec.SNI, sni)
		}
		step++
	})
	flows := p.Flows()
	if len(flows) != 1 || !flows[0].Verdict.ClassifierRan() {
		t.Fatalf("want 1 classified flow, got %+v", flows)
	}
	if flows[0].PacketsDown != 4 || flows[0].PacketsUp != 4 {
		t.Errorf("telemetry split wrong: up=%d down=%d", flows[0].PacketsUp, flows[0].PacketsDown)
	}
}

// endlessRecordChunk returns TCP payload bytes that look like the start of
// a huge handshake record: ParseRecord keeps reporting a truncated body, so
// the assembler keeps buffering — the scenario maxHelloBytes bounds.
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
	p := NewWithConfig(bank, Config{helloCap: 1024})
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
	if len(flows) != 1 || flows[0].Verdict != VerdictOversized {
		t.Fatalf("oversized flow should be tracked but unclassified: %+v", flows)
	}
	// Telemetry still accumulates for the abandoned flow.
	if flows[0].PacketsUp != 4 {
		t.Errorf("telemetry stopped: packetsUp=%d, want 4", flows[0].PacketsUp)
	}
}

// TestOversizedAtProductionBound trips VerdictOversized at the shipped
// maxHelloBytes, through the public API and a default Config, so the number
// that serves is exercised and not only the helloCap seam: a handshake
// message declared 1 MiB long, streamed as maximum-size TLS records that
// never complete it, inside the 8-frame handshake budget. At or below 64 KiB
// buffered the flow is still pending; the first byte past it abandons it.
func TestOversizedAtProductionBound(t *testing.T) {
	const recordBody = 1 << 14 // the largest TLS record
	var stream []byte
	for len(stream) < maxHelloBytes+recordBody {
		stream = append(stream, 22, 0x03, 0x01, recordBody>>8, recordBody&0xff)
		body := make([]byte, recordBody)
		if len(stream) == 5 {
			body[0], body[1] = 1, 0x10 // ClientHello, 0x100000 bytes long
		}
		stream = append(stream, body...)
	}

	p := New(emptyBank())
	ff := newTCPFlowFrames()
	ts := time.Date(2023, 7, 7, 0, 0, 0, 0, time.UTC)
	oversized := func() uint64 { return p.Stats().Verdicts[VerdictOversized] }
	feed := func(payload []byte, flags uint8) {
		t.Helper()
		if rec, err := p.HandlePacket(ts, ff.client(payload, flags)); err != nil || rec != nil {
			t.Fatalf("unexpected classification/err: %v %v", rec, err)
		}
	}
	feed(nil, packet.FlagSYN)
	feed(stream[:40000], packet.FlagACK|packet.FlagPSH)
	feed(stream[40000:maxHelloBytes], packet.FlagACK|packet.FlagPSH)
	if got := oversized(); got != 0 {
		t.Fatalf("oversized with exactly %d bytes buffered = %d, want 0", maxHelloBytes, got)
	}
	feed(stream[maxHelloBytes:maxHelloBytes+1], packet.FlagACK|packet.FlagPSH)
	if got := oversized(); got != 1 {
		t.Fatalf("oversized one byte past %d buffered = %d, want 1", maxHelloBytes, got)
	}
	if flows := p.Flows(); len(flows) != 1 || flows[0].Verdict != VerdictOversized {
		t.Fatalf("want one flow finalized oversized, got %+v", flows)
	}
}

// TestShardedOversizedCounter pins the counter's aggregation across shards
// and its surfacing through IngestStats.
func TestShardedOversizedCounter(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a bank")
	}
	bank := goldenBank(t)
	s := NewShardedWithConfig(bank, 2, Config{helloCap: 512})
	ff := newTCPFlowFrames()
	ts := time.Date(2023, 7, 7, 0, 0, 0, 0, time.UTC)
	s.HandlePacket(ts, ff.client(nil, packet.FlagSYN))
	s.HandlePacket(ts, ff.client(endlessRecordChunk(true, 600), packet.FlagACK|packet.FlagPSH))
	s.Close()
	if got := s.IngestStats().Verdicts[VerdictOversized]; got != 1 {
		t.Fatalf("sharded oversized verdicts = %d, want 1", got)
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
// extensions, parsed where they lie in that copy. QUIC: the copy of its
// CRYPTO bytes (the Initial is decrypted into the scratch, which every flow
// shares), the Initial's three cipher objects (crypto/aes cannot re-key
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
		var scratch asmScratch
		assemble := func() bool {
			var a hsAssembler
			a.init()
			for _, fr := range frames {
				if a.consume(&scratch, fr) {
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
			scratch asmScratch
			arena   []byte // every frame is consumed from here, then overwritten
		)
		run := func(a *hsAssembler, seed uint64) *features.HandshakeInfo {
			a.init()
			for _, fr := range clientFrames(t, seed, tr) {
				arena = append(arena[:0], fr...)
				done := a.consume(&scratch, arena)
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
