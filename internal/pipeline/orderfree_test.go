package pipeline

import (
	"bytes"
	"encoding/binary"
	"math/rand/v2"
	"net/netip"
	"reflect"
	"slices"
	"testing"
	"time"

	"videoplat/internal/features"
	"videoplat/internal/fingerprint"
	"videoplat/internal/packet"
	"videoplat/internal/quicproto"
	"videoplat/internal/tracegen"
)

// chooser draws an impairment's choices: from a PRNG in the property test,
// from the input bytes in the fuzz target.
type chooser interface{ intn(n int) int }

type rngChooser struct{ *rand.Rand }

func (c rngChooser) intn(n int) int { return c.IntN(n) }

// byteChooser reads each choice from the next two input bytes; an exhausted
// input chooses 0.
type byteChooser struct{ b []byte }

func (c *byteChooser) intn(n int) int {
	if len(c.b) < 2 {
		return 0
	}
	v := int(binary.BigEndian.Uint16(c.b)) % n
	c.b = c.b[2:]
	return v
}

// helloFlight is one rendered flow's client flight taken apart, so an
// impairment can cut, scatter, duplicate and reorder the hello and rebuild
// frames that carry the same bytes at the same stream offsets.
type helloFlight struct {
	quic     bool
	src, dst netip.Addr
	sport    uint16
	ttl      uint8
	syn      packet.TCP // TCP: the SYN
	seg      packet.TCP // TCP: the hello segment, the header of every piece
	initial  quicproto.Initial
	size     int    // QUIC: the Initial's datagram size
	hello    []byte // the hello stream: the TCP record bytes or the CRYPTO stream
	synData  int    // hello bytes the SYN carries (TCP Fast Open)
	others   [][]byte
	original [][]byte // the client frames as rendered
}

// newHelloFlight takes a rendered flow's client frames apart.
func newHelloFlight(tb testing.TB, ft *tracegen.FlowTrace) *helloFlight {
	tb.Helper()
	f := &helloFlight{quic: ft.Transport == fingerprint.QUIC}
	for _, fr := range ft.Frames {
		if !fr.ClientToServer {
			continue
		}
		f.original = append(f.original, fr.Data)
		var parser packet.Parser
		parsed := new(packet.Parsed) // one per frame: a TCP header's options point into it
		if err := parser.Parse(fr.Data, parsed); err != nil {
			tb.Fatal(err)
		}
		k, _ := parsed.Flow()
		f.src, f.dst, f.sport, f.ttl = k.Src, k.Dst, k.SrcPort, parsed.TTL()
		switch {
		case !f.quic && parsed.TCP.Flags&packet.FlagSYN != 0:
			f.syn = parsed.TCP
		case !f.quic && len(parsed.Payload) > 0:
			f.seg, f.hello = parsed.TCP, parsed.Payload
		case f.quic && f.hello == nil && quicproto.IsLongHeader(parsed.Payload):
			in, err := quicproto.ParseInitial(parsed.Payload)
			if err != nil || len(in.Crypto) != 1 || in.Crypto[0].Offset != 0 {
				tb.Fatalf("%s: the rendered Initial does not carry the hello whole: %v", ft.Label, err)
			}
			f.initial, f.size, f.hello = *in, len(parsed.Payload), in.Crypto[0].Data
		default:
			f.others = append(f.others, fr.Data)
		}
	}
	if f.hello == nil {
		tb.Fatalf("%s/%s: no hello in the client flight", ft.Label, ft.Transport)
	}
	return f
}

// fastOpen is the same flight with the first n hello bytes carried in the
// SYN (TCP Fast Open).
func (f *helloFlight) fastOpen(n int) *helloFlight {
	g := *f
	g.synData = n
	return &g
}

func (f *helloFlight) frame(proto uint8, seg []byte) []byte {
	ip := packet.IPv4{TTL: f.ttl, Protocol: proto, Src: f.src, Dst: f.dst}
	eth := packet.Ethernet{EtherType: packet.EtherTypeIPv4}
	return eth.Append(nil, ip.Append(nil, seg))
}

// piece is the TCP segment carrying hello[lo:hi] at its sequence number.
func (f *helloFlight) piece(lo, hi int) []byte {
	t := f.seg
	t.Seq = f.syn.Seq + 1 + uint32(lo)
	return f.frame(packet.ProtoTCP, t.Append(nil, f.hello[lo:hi], f.src, f.dst))
}

func (f *helloFlight) synFrame() []byte {
	return f.frame(packet.ProtoTCP, f.syn.Append(nil, f.hello[:f.synData], f.src, f.dst))
}

// initialFrame seals an Initial carrying frames, padded to size; false if
// the frames do not fit it.
func (f *helloFlight) initialFrame(tb testing.TB, frames []quicproto.CryptoFrame, pn uint64, size int) ([]byte, bool) {
	in := f.initial
	in.PacketNumber, in.Crypto = pn, frames
	dg, err := in.Seal(nil, size)
	if err != nil {
		tb.Fatal(err)
	}
	udp := packet.UDP{SrcPort: f.sport, DstPort: 443}
	return f.frame(packet.ProtoUDP, udp.Append(nil, dg, f.src, f.dst)), len(dg) == size
}

// inOrder is the flight as a well-behaved client sends it: the SYN, the
// other client frames, then the rest of the hello in one segment, or the
// hello whole in one Initial.
func (f *helloFlight) inOrder(tb testing.TB) [][]byte {
	if f.quic {
		fr, _ := f.initialFrame(tb, []quicproto.CryptoFrame{{Data: f.hello}}, 0, f.size)
		return append([][]byte{fr}, f.others...)
	}
	out := append([][]byte{f.synFrame()}, f.others...)
	if f.synData < len(f.hello) {
		out = append(out, f.piece(f.synData, len(f.hello)))
	}
	return out
}

// impair rebuilds the flight as a lossy, reordering path delivers it,
// within the pipeline's eight-frame handshake budget. A TCP hello is re-cut
// into up to four segments at correct sequence numbers, plus up to two
// retransmissions, each a copy of a segment or a range re-cut across them.
// A QUIC hello is cut into up to six CRYPTO frames plus up to two
// overlapping ones, scattered over up to three Initials, and one Initial
// may arrive twice. An Initial carrying CRYPTO offset 0 is sealed to the
// rendered Initial's size, since that is the client's first Initial whose
// size the flow reports; any other is padded to a size drawn from 1,200
// bytes to 60 past the rendered one, so a reordered flight puts a packet of
// another size first. Every frame is then shuffled, a TCP SYN too: the
// segments that overtake it are held until it fixes offset 0. Only the
// segment that completes the hello may not overtake it, since a hello whole
// before the SYN is a flow first seen after its SYN, classified without the
// SYN's fields. It reports false when a draw's offset-0 Initial outgrows
// the rendered size.
func (f *helloFlight) impair(tb testing.TB, c chooser) ([][]byte, bool) {
	lo, n := f.synData, len(f.hello)
	if lo == n { // all of the hello rides the SYN
		return f.inOrder(tb), true
	}
	maxCuts, maxExtra := 3, 2
	if f.quic {
		maxCuts = 5
	}
	cuts := []int{lo, n}
	for k := c.intn(maxCuts + 1); k > 0; k-- {
		cuts = append(cuts, lo+1+c.intn(n-lo))
	}
	slices.Sort(cuts)
	cuts = slices.Compact(cuts)
	type span struct{ lo, hi int }
	var spans []span
	for i := 1; i < len(cuts); i++ {
		spans = append(spans, span{cuts[i-1], cuts[i]})
	}
	for k := c.intn(maxExtra + 1); k > 0; k-- {
		a := lo + c.intn(n-lo)
		spans = append(spans, span{a, a + 1 + c.intn(n-a)})
	}

	if !f.quic {
		type segment struct {
			b   []byte
			s   span // the hello bytes it carries
			syn bool
		}
		segs := []segment{{b: f.synFrame(), syn: true}}
		for _, o := range f.others {
			segs = append(segs, segment{b: o})
		}
		for _, s := range spans {
			segs = append(segs, segment{b: f.piece(s.lo, s.hi), s: s})
		}
		shuffle(segs, c)
		covered, missing, done := make([]bool, n), n-lo, 0
		for ; missing > 0; done++ {
			for k := segs[done].s.lo; k < segs[done].s.hi; k++ {
				if !covered[k] {
					covered[k], missing = true, missing-1
				}
			}
		}
		// done is now one past the segment that completes the hello.
		if at := slices.IndexFunc(segs, func(s segment) bool { return s.syn }); at >= done {
			syn := segs[at]
			segs = slices.Insert(slices.Delete(segs, at, at+1), c.intn(done), syn)
		}
		var frames [][]byte
		for _, s := range segs {
			frames = append(frames, s.b)
		}
		return frames, true
	}
	frames := slices.Clone(f.others)
	groups := make([][]quicproto.CryptoFrame, 1+c.intn(3))
	for _, s := range spans {
		g := c.intn(len(groups))
		groups[g] = append(groups[g], quicproto.CryptoFrame{Offset: uint64(s.lo), Data: f.hello[s.lo:s.hi]})
	}
	var initials [][]byte
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		shuffle(g, c)
		size := quicproto.MinInitialSize + c.intn(f.size+61-quicproto.MinInitialSize)
		first := slices.ContainsFunc(g, func(cf quicproto.CryptoFrame) bool { return cf.Offset == 0 })
		if first {
			size = f.size
		}
		fr, fits := f.initialFrame(tb, g, uint64(len(initials)), size)
		if first && !fits {
			return nil, false
		}
		initials = append(initials, fr)
	}
	if c.intn(2) == 1 {
		initials = append(initials, initials[c.intn(len(initials))])
	}
	frames = append(frames, initials...)
	shuffle(frames, c)
	return frames, true
}

func shuffle[T any](s []T, c chooser) {
	for i := len(s) - 1; i > 0; i-- {
		j := c.intn(i + 1)
		s[i], s[j] = s[j], s[i]
	}
}

// orderFreeRenders renders one flow of every supported (platform, provider,
// transport).
func orderFreeRenders(tb testing.TB) []*tracegen.FlowTrace {
	tb.Helper()
	g := tracegen.New(45)
	var out []*tracegen.FlowTrace
	for _, label := range fingerprint.AllPlatformLabels() {
		for _, prov := range fingerprint.AllProviders() {
			if !fingerprint.SupportMatrix(label, prov) {
				continue
			}
			for _, tr := range []fingerprint.Transport{fingerprint.TCP, fingerprint.QUIC} {
				if tr == fingerprint.TCP && !fingerprint.SupportsTCP(label, prov) ||
					tr == fingerprint.QUIC && !fingerprint.SupportsQUIC(label, prov) {
					continue
				}
				ft, err := g.Flow(label, prov, tr, tracegen.FlowSpec{PayloadFrames: 1})
				if err != nil {
					tb.Fatal(err)
				}
				out = append(out, ft)
			}
		}
	}
	return out
}

// extracted is the Table 2 attributes of the hello a client flight
// assembles, or nil when it assembles none.
func extracted(frames [][]byte) *features.FieldValues {
	info, err := ExtractFrames(frames)
	if err != nil {
		return nil
	}
	return features.Extract(info)
}

// decided is what a pipeline decides of a client flight: the verdict and
// everything the classifier said.
type decided struct {
	Verdict    Verdict
	SNI        string
	Provider   fingerprint.Provider
	Transport  fingerprint.Transport
	Prediction Prediction
}

func decide(bank *Bank, frames [][]byte) decided {
	p := New(bank)
	ts := time.Date(2023, 7, 7, 0, 0, 0, 0, time.UTC)
	for _, fr := range frames {
		p.HandlePacket(ts, fr)
	}
	recs := p.Flows()
	if len(recs) != 1 {
		return decided{}
	}
	r := recs[0]
	return decided{r.Verdict, r.SNI, r.Provider, r.Transport, r.Prediction}
}

// TestAssemblyOrderFree is the assembler's property: however a path cuts,
// scatters, duplicates and reorders a client flight (helloFlight.impair),
// every supported (platform, provider, transport) render gives the same
// Table 2 attributes and the same verdict as the in-order render. A TCP
// Fast Open hello, whole in the SYN or begun there, assembles the same
// handshake as the plain one but for the SYN's size, and its impairments
// agree with it.
func TestAssemblyOrderFree(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a bank")
	}
	bank, _ := trainSmallBank(t, 31, 0.02)
	rng := rngChooser{rand.New(rand.NewPCG(45, 1))}
	const draws = 12
	for _, ft := range orderFreeRenders(t) {
		name := ft.Label + "/" + ft.Provider.String() + "/" + ft.Transport.String()
		f := newHelloFlight(t, ft)
		want := extracted(f.original)
		if want == nil {
			t.Fatalf("%s: the render assembles no hello", name)
		}
		if got := extracted(f.inOrder(t)); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: the rebuilt in-order flight differs from the render", name)
		}
		flights := []*helloFlight{f}
		if !f.quic {
			plain, err := ExtractFrames(f.original)
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int{len(f.hello), 1 + rng.intn(len(f.hello)-1)} {
				tfo := f.fastOpen(n)
				info, err := ExtractFrames(tfo.inOrder(t))
				if err != nil {
					t.Fatalf("%s: a Fast Open hello of %d bytes in the SYN: %v", name, n, err)
				}
				if info.InitPacketSize <= plain.InitPacketSize {
					t.Errorf("%s: the Fast Open SYN's size %d is not its own", name, info.InitPacketSize)
				}
				info.InitPacketSize = plain.InitPacketSize
				if !reflect.DeepEqual(features.Extract(info), want) {
					t.Errorf("%s: a Fast Open hello of %d bytes in the SYN assembles another handshake", name, n)
				}
				flights = append(flights, tfo)
			}
		}
		for _, fl := range flights {
			ref := fl.inOrder(t)
			wantX, wantD := extracted(ref), decide(bank, ref)
			if wantD.Verdict == VerdictPending || wantD.SNI != ft.SNI {
				t.Fatalf("%s: the in-order flight decided %+v", name, wantD)
			}
			for i, tries := 0, 0; i < draws; tries++ {
				if tries == 100*draws {
					t.Fatalf("%s: %d of %d draws fit the rendered Initial", name, i, tries)
				}
				frames, ok := fl.impair(t, rng)
				if !ok {
					continue
				}
				i++
				if got := extracted(frames); !reflect.DeepEqual(got, wantX) {
					t.Errorf("%s (Fast Open %d bytes), draw %d: attributes differ from the in-order flight's", name, fl.synData, i)
				}
				if got := decide(bank, frames); !reflect.DeepEqual(got, wantD) {
					t.Errorf("%s (Fast Open %d bytes), draw %d: decided %+v, in order %+v", name, fl.synData, i, got, wantD)
				}
			}
		}
	}
}

// orderFreeSeeds are FuzzAssemblyOrderFree's renders: a TCP and a QUIC
// flow, and the TCP one with a Fast Open SYN carrying part of its hello.
func orderFreeSeeds(tb testing.TB) []*helloFlight {
	g := tracegen.New(46)
	var out []*helloFlight
	for _, tr := range []fingerprint.Transport{fingerprint.TCP, fingerprint.QUIC} {
		ft, err := g.Flow("windows_chrome", fingerprint.YouTube, tr, tracegen.FlowSpec{PayloadFrames: 1})
		if err != nil {
			tb.Fatal(err)
		}
		out = append(out, newHelloFlight(tb, ft))
	}
	return append(out, out[0].fastOpen(len(out[0].hello)/3))
}

// FuzzAssemblyOrderFree drives helloFlight.impair from the input bytes —
// the first picks a seed render, the rest every cut, scatter, duplicate and
// shuffle — and checks the impaired flight against the in-order one: the
// same Table 2 attributes, and no panic on the way.
func FuzzAssemblyOrderFree(f *testing.F) {
	seeds := orderFreeSeeds(f)
	want := make([]*features.FieldValues, len(seeds))
	for i, s := range seeds {
		if want[i] = extracted(s.inOrder(f)); want[i] == nil {
			f.Fatalf("seed %d assembles no hello in order", i)
		}
	}
	for i := range seeds {
		f.Add([]byte{byte(i)})
		f.Add(append([]byte{byte(i)}, bytes.Repeat([]byte{0x5a, 0xc3, 0x1f}, 24)...))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		i := int(data[0]) % len(seeds)
		frames, ok := seeds[i].impair(t, &byteChooser{data[1:]})
		if !ok {
			return
		}
		if got := extracted(frames); !reflect.DeepEqual(got, want[i]) {
			t.Errorf("seed %d: the impaired flight's attributes differ from the in-order flight's", i)
		}
	})
}

// TestLateSYNAssembles: a segment that overtakes the SYN, and the hello's
// first segment with it, is held at its sequence number until the SYN fixes
// offset 0, so seg2, SYN, seg1 assembles what SYN, seg1, seg2 does. Bytes
// that begin no record are held, not dropped: a run from offset 0 that
// begins with a record header of another kind, a flow joined mid-stream,
// is what drops them.
func TestLateSYNAssembles(t *testing.T) {
	f := orderFreeSeeds(t)[0]
	k := len(f.hello) / 2
	seg1, seg2 := f.piece(0, k), f.piece(k, len(f.hello))
	want := extracted(append([][]byte{f.synFrame(), seg1, seg2}, f.others...))
	if want == nil {
		t.Fatal("the in-order flight assembles no hello")
	}
	if got := extracted(append([][]byte{seg2, f.synFrame(), seg1}, f.others...)); !reflect.DeepEqual(got, want) {
		t.Errorf("seg2, SYN, seg1 assembles %v, in order %v", got, want)
	}

	var a hsAssembler
	var s asmScratch
	a.init()
	if a.consume(&s, seg2) || len(a.stream()) != len(f.hello)-k {
		t.Fatalf("the second segment alone: %d bytes held, want %d", len(a.stream()), len(f.hello)-k)
	}
	appData := f.seg
	appData.Seq = f.syn.Seq + 1 - 64
	join := f.frame(packet.ProtoTCP, appData.Append(nil, []byte{23, 3, 3, 0, 4, 1, 2, 3, 4}, f.src, f.dst))
	if a.consume(&s, join) || len(a.stream()) != 0 || a.haveBase {
		t.Fatalf("an application-data record at offset 0 left %d bytes held (base %v)", len(a.stream()), a.haveBase)
	}
}
