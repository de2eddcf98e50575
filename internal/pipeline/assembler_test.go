package pipeline

import (
	"bytes"
	"math/rand/v2"
	"net/netip"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"videoplat/internal/features"
	"videoplat/internal/fingerprint"
	"videoplat/internal/packet"
	"videoplat/internal/quicproto"
	"videoplat/internal/tracegen"
)

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

// eachRecycled lends pkts to a Sharded in batches of one frame and makes
// each batch pack into the arena the batch before it used. A busy tap
// gets that recycling by volume; here a SnapshotFlows round trip after every
// frame waits until the worker has put the batch back, and one P makes
// sync.Pool hand that very batch to the next call (its caches are per P, so
// with more the worker's put can sit where ingest never looks). Under the
// race detector the pool drops a quarter of its puts and the reuse is only
// usual.
func (l *frameLender) eachRecycled(s *Sharded, pkts []IngestPacket) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for i := range pkts {
		l.batch(pkts[i:i+1], s.HandlePacketBatch)
		s.SnapshotFlows()
	}
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
	ft, err := tracegen.New(1).Flow("macOS_safari", fingerprint.Amazon, fingerprint.TCP, tracegen.FlowSpec{PayloadFrames: 2})
	if err != nil {
		t.Fatal(err)
	}
	var server [][]byte // SYN-ACK, the server's flight, two payload frames
	for _, fr := range ft.Frames {
		if !fr.ClientToServer {
			server = append(server, fr.Data)
		}
	}
	f := newHelloFlight(t, ft)
	n := len(f.hello)
	var pkts []IngestPacket
	for i, frame := range [][]byte{
		f.synFrame(),
		server[0],
		f.piece(0, n/3),
		server[1], // server bytes mid-handshake
		f.piece(n/3, 2*n/3),
		server[2],
		f.piece(2*n/3, n), // splitHelloIndex
		server[3],         // post-classification traffic
	} {
		pkts = append(pkts, IngestPacket{TS: start.Add(time.Duration(i) * time.Millisecond), Data: frame})
	}
	return pkts, ft.SNI
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

func TestMaxHelloBytesAbandonsOversizedFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a bank")
	}
	bank := goldenBank(t)
	p := NewWithConfig(bank, Config{helloCap: 1024})
	// A SYN, then two 600-byte segments of a handshake record that never
	// ends, so the assembler keeps buffering: the scenario maxHelloBytes bounds.
	frames := frameData(tracegen.New(1).OversizedFlow(netip.MustParseAddr("192.168.1.2")))
	ts := time.Date(2023, 7, 7, 0, 0, 0, 0, time.UTC)

	feed := func(frame []byte) {
		t.Helper()
		if rec, err := p.HandlePacket(ts, frame); err != nil || rec != nil {
			t.Fatalf("unexpected classification/err: %v %v", rec, err)
		}
	}
	feed(frames[0])
	feed(frames[1])
	if got := p.Stats().Verdicts[VerdictOversized]; got != 0 {
		t.Fatalf("oversized after 600 buffered bytes = %d, want 0", got)
	}
	feed(frames[2])
	if got := p.Stats().Verdicts[VerdictOversized]; got != 1 {
		t.Fatalf("oversized after 1200 buffered bytes = %d, want 1", got)
	}
	// The flow is abandoned: a further client segment, here the last one
	// again, neither re-triggers assembly nor bumps the counter again.
	feed(frames[2])
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
	// The oversized flow's SYN and segments, carrying stream instead.
	f := newHelloFlight(t, tracegen.New(1).OversizedFlow(netip.MustParseAddr("192.168.1.2")))
	f.hello = stream
	ts := time.Date(2023, 7, 7, 0, 0, 0, 0, time.UTC)
	oversized := func() uint64 { return p.Stats().Verdicts[VerdictOversized] }
	feed := func(frame []byte) {
		t.Helper()
		if rec, err := p.HandlePacket(ts, frame); err != nil || rec != nil {
			t.Fatalf("unexpected classification/err: %v %v", rec, err)
		}
	}
	feed(f.synFrame())
	feed(f.piece(0, 40000))
	feed(f.piece(40000, maxHelloBytes))
	if got := oversized(); got != 0 {
		t.Fatalf("oversized with exactly %d bytes buffered = %d, want 0", maxHelloBytes, got)
	}
	feed(f.piece(maxHelloBytes, maxHelloBytes+1))
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
	frames := frameData(tracegen.New(1).OversizedFlow(netip.MustParseAddr("192.168.1.2")))
	ts := time.Date(2023, 7, 7, 0, 0, 0, 0, time.UTC)
	s.HandlePacketBatch([]IngestPacket{{TS: ts, Data: frames[0]}})
	s.HandlePacketBatch([]IngestPacket{{TS: ts, Data: frames[1]}})
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
	return clientData(ft)
}

// TestAssemblerAllocCeilings pins what assembling one whole flow allocates
// — only what the flow has to own until it is classified, here with no
// store given back to take. TCP: the handshake store, the copy of its
// client bytes, and the ClientHello's cipher suites and extensions, parsed
// where they lie in that copy. QUIC: the store, the copy of its CRYPTO
// bytes (the Initial is decrypted into the scratch, which every flow
// shares), the Initial's three cipher objects (crypto/aes cannot re-key
// one), the ClientHello's two lists and the transport parameters' list.
func TestAssemblerAllocCeilings(t *testing.T) {
	for _, c := range []struct {
		tr      fingerprint.Transport
		ceiling float64
	}{
		{fingerprint.TCP, 4},
		{fingerprint.QUIC, 8},
	} {
		frames := clientFrames(t, 7, c.tr)
		var scratch asmScratch
		assemble := func() bool {
			var a hsAssembler
			a.init()
			for _, fr := range frames {
				if a.consume(&scratch, fr) {
					return a.info.Hello != nil
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
					return &a.info
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

// assembleFlight runs frames through a fresh assembler and returns it with
// the index of the frame that completed the hello, or -1.
func assembleFlight(frames [][]byte) (*hsAssembler, int) {
	var s asmScratch
	a := new(hsAssembler)
	a.init()
	for i, fr := range frames {
		if a.consume(&s, fr) {
			return a, i
		}
	}
	return a, -1
}

// quicFlight is a rendered QUIC flow taken apart, and the in-order
// attributes its hello gives.
func quicFlight(t *testing.T) (*helloFlight, *features.FieldValues) {
	t.Helper()
	ft, err := tracegen.New(7).Flow("android_chrome", fingerprint.YouTube, fingerprint.QUIC, tracegen.FlowSpec{PayloadFrames: 1})
	if err != nil {
		t.Fatal(err)
	}
	f := newHelloFlight(t, ft)
	return f, extracted(f.original)
}

// initials seals one Initial per frame list, in order.
func (f *helloFlight) initials(t testing.TB, lists ...[]quicproto.CryptoFrame) [][]byte {
	t.Helper()
	var out [][]byte
	for i, l := range lists {
		fr, _ := f.initialFrame(t, l, uint64(i), f.size)
		out = append(out, fr)
	}
	return out
}

// cryptoAt is the CRYPTO frame carrying f.hello[lo:hi].
func (f *helloFlight) cryptoAt(lo, hi int) quicproto.CryptoFrame {
	return quicproto.CryptoFrame{Offset: uint64(lo), Data: f.hello[lo:hi]}
}

// TestAssemblerReorderedHellos: the three flights an arrival-order
// assembler loses — a two-segment TCP hello delivered out of order, the
// same hello with its first segment retransmitted, a two-Initial QUIC hello
// delivered out of order — assemble on the frame that closes the hole, to
// the in-order attributes; so does a retransmission on a flow whose SYN the
// tap missed, whose stream starts at its first payload segment.
func TestAssemblerReorderedHellos(t *testing.T) {
	ft, err := tracegen.New(7).Flow("windows_chrome", fingerprint.Netflix, fingerprint.TCP, tracegen.FlowSpec{PayloadFrames: 1})
	if err != nil {
		t.Fatal(err)
	}
	tcp := newHelloFlight(t, ft)
	quic, quicWant := quicFlight(t)
	k, q := len(tcp.hello)/2, len(quic.hello)/2
	for _, c := range []struct {
		name   string
		frames [][]byte
		done   int
		want   *features.FieldValues
		held   int // the hello's length: all the flow holds once it is assembled
	}{
		{"TCP, second segment first", [][]byte{tcp.synFrame(), tcp.piece(k, len(tcp.hello)), tcp.piece(0, k)}, 2, extracted(tcp.original), len(tcp.hello)},
		{"TCP, first segment retransmitted", [][]byte{tcp.synFrame(), tcp.piece(0, k), tcp.piece(0, k), tcp.piece(k, len(tcp.hello))}, 3, extracted(tcp.original), len(tcp.hello)},
		{"TCP first seen after its SYN, first segment retransmitted", [][]byte{tcp.piece(0, k), tcp.piece(0, k), tcp.piece(k, len(tcp.hello))}, 2,
			extracted([][]byte{tcp.piece(0, len(tcp.hello))}), len(tcp.hello)},
		{"QUIC, second Initial first", quic.initials(t,
			[]quicproto.CryptoFrame{quic.cryptoAt(q, len(quic.hello))},
			[]quicproto.CryptoFrame{quic.cryptoAt(0, q)}), 1, quicWant, len(quic.hello)},
	} {
		a, done := assembleFlight(c.frames)
		if done != c.done {
			t.Errorf("%s: assembled on frame %d, want %d", c.name, done, c.done)
			continue
		}
		if got := features.Extract(&a.info); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s: attributes differ from the in-order flight's", c.name)
		}
		if a.ahead != nil || len(a.stream()) != c.held {
			t.Errorf("%s: holds %d bytes of a %d-byte hello, out-of-order state %v", c.name, len(a.stream()), c.held, a.ahead != nil)
		}
	}
}

// zeroRTTFrame is a 0-RTT early-data packet of the flight's connection, size
// bytes of UDP payload: a long header and an opaque body.
func (f *helloFlight) zeroRTTFrame(size int) []byte {
	pkt := append([]byte{0xc0 | quicproto.Type0RTT<<4, 0, 0, 0, 1, byte(len(f.initial.DCID))}, f.initial.DCID...)
	pkt = append(append(pkt, byte(len(f.initial.SCID))), f.initial.SCID...)
	pkt = append(pkt, make([]byte, size-len(pkt))...)
	udp := packet.UDP{SrcPort: f.sport, DstPort: 443}
	return f.frame(packet.ProtoUDP, udp.Append(nil, pkt, f.src, f.dst))
}

// TestQUICAttributesFromFirstInitial: a QUIC flow's TTL and
// init_packet_size are those of the Initial carrying CRYPTO offset 0,
// whatever arrives first — a later Initial of another size and TTL, or a
// 0-RTT packet that overtakes it. Only a flow that never shows that
// Initial (resumption, the degraded path) reports its first QUIC packet.
func TestQUICAttributesFromFirstInitial(t *testing.T) {
	f, _ := quicFlight(t)
	q := len(f.hello) / 2
	first, ok := f.initialFrame(t, []quicproto.CryptoFrame{f.cryptoAt(0, q)}, 0, 1205)
	later := *f
	later.ttl = f.ttl - 7
	second, ok2 := later.initialFrame(t, []quicproto.CryptoFrame{f.cryptoAt(q, len(f.hello))}, 1, 1200)
	whole, ok3 := f.initialFrame(t, []quicproto.CryptoFrame{f.cryptoAt(0, len(f.hello))}, 0, f.size)
	if !ok || !ok2 || !ok3 {
		t.Fatal("a hello half does not fit a 1,200-byte Initial")
	}
	for _, c := range []struct {
		name   string
		frames [][]byte
		size   int
	}{
		{"in order", [][]byte{first, second}, 1205},
		{"second Initial first", [][]byte{second, first}, 1205},
		{"0-RTT before the Initial", [][]byte{f.zeroRTTFrame(1300), whole}, f.size},
		{"0-RTT and the second Initial before the first", [][]byte{f.zeroRTTFrame(1300), second, first}, 1205},
	} {
		a, done := assembleFlight(c.frames)
		if done != len(c.frames)-1 {
			t.Errorf("%s: assembled on frame %d, want %d", c.name, done, len(c.frames)-1)
			continue
		}
		if a.info.InitPacketSize != c.size || a.info.TTL != f.ttl || !a.info.QUIC {
			t.Errorf("%s: init_packet_size %d, TTL %d, want %d, %d", c.name, a.info.InitPacketSize, a.info.TTL, c.size, f.ttl)
		}
	}

	// Resumption: no Initial ever comes, so the first 0-RTT packet stands.
	a, done := assembleFlight([][]byte{f.zeroRTTFrame(1300), f.zeroRTTFrame(1250)})
	if done != -1 || !a.zeroRTT || !a.info.QUIC || a.info.InitPacketSize != 1300 || a.info.TTL != f.ttl {
		t.Errorf("0-RTT only: assembled on %d, zeroRTT %v, QUIC %v, init_packet_size %d, TTL %d; want -1, true, true, 1300, %d",
			done, a.zeroRTT, a.info.QUIC, a.info.InitPacketSize, a.info.TTL, f.ttl)
	}
}

// TestAssemblerCryptoOutOfOrderFrames: one Initial whose CRYPTO frames
// come last-first, with the hello scattered over as many frames as
// quicproto lets one Initial carry, assembles on that Initial.
func TestAssemblerCryptoOutOfOrderFrames(t *testing.T) {
	f, want := quicFlight(t)
	for _, n := range []int{2, 7, 32} {
		var frames []quicproto.CryptoFrame
		for i := n - 1; i >= 0; i-- {
			frames = append(frames, f.cryptoAt(i*len(f.hello)/n, (i+1)*len(f.hello)/n))
		}
		a, done := assembleFlight(f.initials(t, frames))
		if done != 0 {
			t.Fatalf("%d frames: no hello", n)
		}
		if got := features.Extract(&a.info); !reflect.DeepEqual(got, want) {
			t.Errorf("%d frames: attributes differ from the in-order flight's", n)
		}
	}
}

// TestAssemblerCryptoOverlappingFrames: where CRYPTO frames overlap, the
// bytes already held win — a later frame whose overlap is garbage changes
// nothing — and a duplicate adds nothing.
func TestAssemblerCryptoOverlappingFrames(t *testing.T) {
	f, want := quicFlight(t)
	n := len(f.hello)
	garbled := append([]byte(nil), f.hello[n/3:]...)
	for i := range n / 3 { // the part [n/3, 2n/3) the first frame already holds
		garbled[i] ^= 0xff
	}
	a, done := assembleFlight(f.initials(t,
		[]quicproto.CryptoFrame{f.cryptoAt(0, 2*n/3), {Offset: uint64(n / 3), Data: garbled}, f.cryptoAt(0, n/2)}))
	if done != 0 {
		t.Fatal("no hello")
	}
	if len(a.stream()) != n {
		t.Errorf("holds %d bytes of a %d-byte hello", len(a.stream()), n)
	}
	if got := features.Extract(&a.info); !reflect.DeepEqual(got, want) {
		t.Error("attributes differ from the in-order flight's")
	}
}

// TestAssemblerCryptoHoleWaits: a hole inside one Initial is not malformed
// but waits for the Initial that fills it, and the bytes past it are held
// as received, not at their offset in a grown buffer.
func TestAssemblerCryptoHoleWaits(t *testing.T) {
	f, want := quicFlight(t)
	n := len(f.hello)
	frames := f.initials(t,
		[]quicproto.CryptoFrame{f.cryptoAt(0, n/4), f.cryptoAt(3*n/4, n)},
		[]quicproto.CryptoFrame{f.cryptoAt(n/4, 3*n/4)})
	var s asmScratch
	var a hsAssembler
	a.init()
	if a.consume(&s, frames[0]) {
		t.Fatal("assembled across a hole")
	}
	if held := n/4 + n - 3*n/4; len(a.stream()) != held || a.inOrder() != n/4 {
		t.Fatalf("holds %d bytes, %d in order; want %d, %d", len(a.stream()), a.inOrder(), held, n/4)
	}
	if !a.consume(&s, frames[1]) {
		t.Fatal("the Initial that fills the hole did not complete the hello")
	}
	if got := features.Extract(&a.info); !reflect.DeepEqual(got, want) {
		t.Error("attributes differ from the in-order flight's")
	}
}

// TestAheadBoundIsOversized: a flow may hold maxAhead ranges past the hole;
// the piece that would make one more ends it VerdictOversized, two packets
// in — an Initial can carry 32 islands of CRYPTO data.
func TestAheadBoundIsOversized(t *testing.T) {
	f, _ := quicFlight(t)
	var islands, more []quicproto.CryptoFrame
	for i := range maxAhead {
		islands = append(islands, f.cryptoAt(4+8*i, 8+8*i))
	}
	more = append(more, f.cryptoAt(4+8*maxAhead, 8+8*maxAhead))
	frames := f.initials(t, islands, more)

	var s asmScratch
	var a hsAssembler
	a.init()
	a.consume(&s, frames[0])
	if a.overflow || a.ahead == nil || a.ahead.n != 1+maxAhead {
		t.Fatalf("%d islands: overflow %v", maxAhead, a.overflow)
	}
	a.consume(&s, frames[1])
	if !a.overflow {
		t.Fatalf("%d islands: no overflow", maxAhead+1)
	}

	p := New(emptyBank())
	ts := time.Date(2023, 7, 7, 0, 0, 0, 0, time.UTC)
	for _, fr := range frames {
		p.HandlePacket(ts, fr)
	}
	if flows := p.Flows(); len(flows) != 1 || flows[0].Verdict != VerdictOversized {
		t.Fatalf("want one flow finalized oversized, got %+v", flows)
	}
}

// TestPlaceHoldsEachByteOnce places random pieces of a random stream — in
// any order, overlapping and repeated — and checks after every piece that
// the flow holds exactly the bytes placed so far, each once and in offset
// order, as the fewest ranges (the run from offset 0 first), with no
// out-of-order state once there is no hole; and that a piece that would
// make more than maxAhead ranges past the hole is refused.
func TestPlaceHoldsEachByteOnce(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	overflows := 0
	for iter := 0; iter < 3000; iter++ {
		want := make([]byte, 1+rng.IntN(300))
		for i := range want {
			want[i] = byte(rng.IntN(256))
		}
		a := hsAssembler{hs: new(hsStore)}
		placed := make([]bool, len(want))
		for step := 0; step < 50; step++ {
			lo := rng.IntN(len(want))
			piece := 40
			if iter%2 == 0 { // crumbs: enough islands to reach the bound
				piece = 2
			}
			hi := lo + 1 + rng.IntN(min(len(want)-lo, piece))
			ok := a.place(uint32(lo), want[lo:hi])
			before := slices.Clone(placed)
			for i := lo; i < hi; i++ {
				placed[i] = true
			}
			// The ranges the placed bytes make: the run from 0, then the rest.
			ranges := []extent{{0, 0}}
			for i, in := range placed {
				switch last := &ranges[len(ranges)-1]; {
				case in && int(last.end) == i:
					last.end++
				case in:
					ranges = append(ranges, extent{uint32(i), uint32(i + 1)})
				}
			}
			if !ok {
				if len(ranges) <= 1+maxAhead || !a.overflow {
					t.Fatalf("iter %d: %d ranges refused", iter, len(ranges))
				}
				placed = before
				overflows++
				break
			}
			var held []byte
			for _, e := range ranges {
				held = append(held, want[e.off:e.end]...)
			}
			if !bytes.Equal(a.stream(), held) {
				t.Fatalf("iter %d step %d: holds %d bytes, want %d in offset order", iter, step, len(a.stream()), len(held))
			}
			switch {
			case len(ranges) == 1 && a.ahead != nil:
				t.Fatalf("iter %d step %d: out-of-order state with no hole", iter, step)
			case len(ranges) > 1 && (a.ahead == nil || !slices.Equal(a.ahead.r[:a.ahead.n], ranges)):
				t.Fatalf("iter %d step %d: ranges %v, want %v", iter, step, a.ahead, ranges)
			case a.inOrder() != int(ranges[0].end):
				t.Fatalf("iter %d step %d: run of %d, want %d", iter, step, a.inOrder(), ranges[0].end)
			}
		}
		if a.overflow {
			continue
		}
		a.place(0, want)
		if !bytes.Equal(a.stream(), want) || a.ahead != nil {
			t.Fatalf("iter %d: the whole stream placed is not the stream", iter)
		}
	}
	if overflows == 0 {
		t.Error("no draw reached the maxAhead bound")
	}
}
