package quicproto

import (
	"bytes"
	"encoding/hex"
	"errors"
	"testing"

	"videoplat/internal/tlsproto"
)

// quicHello builds a ClientHello carrying QUIC transport parameters, sized
// by pad so two hellos differ in every length an Opener's scratch sees.
func quicHello(tb testing.TB, sni string, pad int) []byte {
	tb.Helper()
	tp := &TransportParameters{}
	tp.AppendUint(ParamMaxIdleTimeout, 30000)
	tp.AppendBytes(ParamInitialSourceConnectionID, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	tp.AppendBytes(ParamUserAgent, []byte("opener-test "+sni))
	ch := &tlsproto.ClientHello{
		LegacyVersion:      tlsproto.VersionTLS12,
		CipherSuites:       []uint16{0x1301, 0x1302, 0x1303},
		CompressionMethods: []byte{0},
		Extensions: []tlsproto.Extension{
			{Type: tlsproto.ExtServerName, Data: tlsproto.ServerNameData(sni)},
			{Type: tlsproto.ExtQUICTransportParams, Data: tp.Marshal()},
			{Type: tlsproto.ExtPadding, Data: make([]byte, pad)},
		},
	}
	return ch.Marshal()
}

// whole is a CRYPTO frame list carrying data whole, at offset 0.
func whole(data []byte) []CryptoFrame { return []CryptoFrame{{Data: data}} }

// wholeCrypto is the CRYPTO data of an Initial that carries it whole, in
// one frame at offset 0.
func wholeCrypto(tb testing.TB, p *Initial) []byte {
	tb.Helper()
	if len(p.Crypto) != 1 || p.Crypto[0].Offset != 0 {
		tb.Fatalf("CRYPTO frames %+v, want one at offset 0", p.Crypto)
	}
	return p.Crypto[0].Data
}

// decoded is everything a flow keeps of an opened Initial, re-encoded so two
// snapshots compare byte for byte.
type decoded struct {
	crypto, hello, params []byte
}

func decode(tb testing.TB, p *Initial) (*tlsproto.ClientHello, *TransportParameters) {
	tb.Helper()
	ch, err := tlsproto.Parse(wholeCrypto(tb, p))
	if err != nil {
		tb.Fatalf("parsing ClientHello: %v", err)
	}
	e, ok := ch.Extension(tlsproto.ExtQUICTransportParams)
	if !ok {
		tb.Fatal("no transport parameters")
	}
	tp, err := ParseTransportParameters(e.Data)
	if err != nil {
		tb.Fatalf("parsing transport parameters: %v", err)
	}
	return ch, tp
}

func snapshot(p *Initial, ch *tlsproto.ClientHello, tp *TransportParameters) decoded {
	return decoded{
		crypto: append([]byte(nil), p.Crypto[0].Data...),
		hello:  ch.Marshal(),
		params: tp.Marshal(),
	}
}

func (d decoded) equal(o decoded) bool {
	return bytes.Equal(d.crypto, o.crypto) && bytes.Equal(d.hello, o.hello) && bytes.Equal(d.params, o.params)
}

// TestOpenerReuseKeepsEarlierPacket is the deferred-batch hazard: a shard
// worker opens flow A's Initial, then — before A is classified — opens B's
// and C's through the same Opener. Everything A kept (the CRYPTO bytes, the
// Hello parsed out of them, the transport parameters parsed out of that)
// must be bit-identical afterwards.
func TestOpenerReuseKeepsEarlierPacket(t *testing.T) {
	helloA, helloB := quicHello(t, "a.googlevideo.com", 10), quicHello(t, "b.example.net", 300)
	seal := func(in *Initial) []byte {
		dg, err := in.Seal(nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		return dg
	}
	dgA := seal(&Initial{Version: Version1, DCID: []byte{1, 2, 3, 4, 5, 6, 7, 8}, SCID: []byte{9}, Crypto: whole(helloA)})
	// B differs in every scratch-sized quantity: a header longer than the
	// Opener's inline header buffer (full-length CIDs and a token), another
	// packet number, a longer payload.
	dgB := seal(&Initial{Version: Version1, DCID: bytes.Repeat([]byte{0xbb}, 20), SCID: bytes.Repeat([]byte{0xcc}, 20),
		Token: bytes.Repeat([]byte("retry"), 20), PacketNumber: 77, Crypto: whole(helloB)})

	var o Opener
	var a, b, a2 Initial
	bufA, err := o.Open(&a, dgA, nil)
	if err != nil {
		t.Fatal(err)
	}
	chA, tpA := decode(t, &a)
	before := snapshot(&a, chA, tpA)
	if !bytes.Equal(before.crypto, helloA) {
		t.Fatal("A's CRYPTO data is not the hello that was sealed")
	}

	bufB, err := o.Open(&b, dgB, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wholeCrypto(t, &b), helloB) || !bytes.Equal(b.Token, bytes.Repeat([]byte("retry"), 20)) || b.PacketNumber != 77 {
		t.Fatal("B did not decode to what was sealed")
	}
	bufA2, err := o.Open(&a2, dgA, nil)
	if err != nil {
		t.Fatal(err)
	}

	if after := snapshot(&a, chA, tpA); !before.equal(after) {
		t.Error("opening B and A′ changed what A's flow kept")
	}
	chA2, tpA2 := decode(t, &a2)
	if !before.equal(snapshot(&a2, chA2, tpA2)) {
		t.Error("A′ decoded differently from A")
	}
	if &bufA[0] == &bufB[0] || &bufA[0] == &bufA2[0] {
		t.Error("two opens with nil buffers share a payload buffer")
	}
}

// TestOpenerReusesCallerBuffer pins the other half of the buffer contract:
// a buffer that fits is written in place, returned, and aliased by
// the CRYPTO frame's Data — also when it comes back from a failed open.
func TestOpenerReusesCallerBuffer(t *testing.T) {
	hello := quicHello(t, "a.googlevideo.com", 10)
	dg, err := (&Initial{Version: Version1, DCID: []byte{1, 2, 3, 4}, Crypto: whole(hello)}).Seal(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	tampered := append([]byte(nil), dg...)
	tampered[len(tampered)-1] ^= 1

	var o Opener
	var p Initial
	own := make([]byte, 0, len(dg))
	buf, err := o.Open(&p, tampered, own)
	if err != ErrAuthFailure || cap(buf) != cap(own) {
		t.Fatalf("tampered open: err = %v, buffer cap %d (offered %d)", err, cap(buf), cap(own))
	}
	if buf, err = o.Open(&p, dg, buf); err != nil {
		t.Fatal(err)
	}
	if &buf[:1][0] != &own[:1][0] {
		t.Error("a fitting buffer was not used in place")
	}
	if !bytes.Equal(wholeCrypto(t, &p), hello) {
		t.Fatal("CRYPTO data mismatch")
	}
	// The frame's Data lies inside the returned buffer.
	off := bytes.Index(buf, hello)
	if off < 0 || &buf[off] != &p.Crypto[0].Data[0] {
		t.Error("CRYPTO data does not alias the returned buffer")
	}
}

// TestRFC9001VectorThroughUsedOpener decrypts the RFC 9001 Appendix A
// client Initial with an Opener that has already opened other packets.
func TestRFC9001VectorThroughUsedOpener(t *testing.T) {
	datagram, err := hex.DecodeString(rfc9001ClientInitial)
	if err != nil {
		t.Fatal(err)
	}
	var o Opener
	var p Initial
	for _, dg := range fuzzSeeds(t) {
		_, _ = o.Open(&p, dg, nil) // valid, truncated and tampered packets alike
	}
	if _, err := o.Open(&p, datagram, nil); err != nil {
		t.Fatal(err)
	}
	checkRFC9001ClientInitial(t, &p)
}

// scatteredInitial seals an Initial whose CRYPTO stream is cut into n
// frames emitted last-first, as stacks that scatter their hello do.
func scatteredInitial(tb testing.TB, crypto []byte, n int) []byte {
	tb.Helper()
	in := &Initial{Version: Version1, DCID: []byte{5, 4, 3, 2, 1}}
	for i := n - 1; i >= 0; i-- {
		lo, hi := i*len(crypto)/n, (i+1)*len(crypto)/n
		in.Crypto = append(in.Crypto, CryptoFrame{Offset: uint64(lo), Data: crypto[lo:hi]})
	}
	dg, err := in.Seal(nil, 0)
	if err != nil {
		tb.Fatal(err)
	}
	return dg
}

// within reports whether d starts inside buf's bytes.
func within(buf, d []byte) bool {
	for i := range buf {
		if &buf[i] == &d[0] {
			return true
		}
	}
	return false
}

// TestOpenerScatteredCrypto: a scattered hello's frames are listed as the
// packet carries them, last-first, each aliasing the returned buffer, and
// together they are the hello. Putting them in order is the flow's job.
func TestOpenerScatteredCrypto(t *testing.T) {
	hello := quicHello(t, "scattered.googlevideo.com", 200)
	var o Opener
	var p Initial
	for _, n := range []int{2, 7, maxCryptoSegments} {
		buf, err := o.Open(&p, scatteredInitial(t, hello, n), nil)
		if err != nil {
			t.Fatalf("%d segments: %v", n, err)
		}
		if len(p.Crypto) != n {
			t.Fatalf("%d segments: listed %d frames", n, len(p.Crypto))
		}
		got := make([]byte, len(hello))
		for i, f := range p.Crypto {
			if lo := (n - 1 - i) * len(hello) / n; f.Offset != uint64(lo) {
				t.Fatalf("%d segments: frame %d at offset %d, want %d", n, i, f.Offset, lo)
			}
			if !within(buf, f.Data) {
				t.Errorf("%d segments: frame %d does not alias the returned buffer", n, i)
			}
			copy(got[f.Offset:], f.Data)
		}
		if !bytes.Equal(got, hello) {
			t.Fatalf("%d segments: the frames do not cover the hello", n)
		}
	}
	// One frame too many is malformed, not a longer list.
	if _, err := o.Open(&p, scatteredInitial(t, hello, maxCryptoSegments+1), nil); !errors.Is(err, ErrMalformed) {
		t.Errorf("%d segments: err = %v, want ErrMalformed", maxCryptoSegments+1, err)
	}
}

// TestOpenAllocs pins what a packet costs: the three cipher objects of its
// key schedule and, when the caller's buffer does not fit, that buffer.
// ParseInitial adds its fresh Opener and the Initial it returns.
func TestOpenAllocs(t *testing.T) {
	dg, err := (&Initial{Version: Version1, DCID: []byte{1, 2, 3, 4, 5, 6, 7, 8},
		Crypto: whole(quicHello(t, "a.googlevideo.com", 100))}).Seal(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var o Opener
	var p Initial
	buf, err := o.Open(&p, dg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { buf, _ = o.Open(&p, dg, buf) }); n > 3 {
		t.Errorf("Open into a fitting buffer: %.0f allocs, want <= 3", n)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = o.Open(&p, dg, nil) }); n > 4 {
		t.Errorf("Open into a new buffer: %.0f allocs, want <= 4", n)
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = ParseInitial(dg) }); n > 6 {
		t.Errorf("ParseInitial: %.0f allocs, want <= 6", n)
	}
}

// TestSealAllocs pins what sealing a packet costs: with a kept Sealer and a
// buffer that fits, the three cipher objects of its key schedule and
// nothing else — the nonce and header-protection mask live in the Sealer.
// Initial.Seal adds its fresh Sealer.
func TestSealAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation moves a sealed packet's values to the heap")
	}
	in := &Initial{Version: Version1, DCID: []byte{1, 2, 3, 4, 5, 6, 7, 8},
		Crypto: whole(quicHello(t, "a.googlevideo.com", 100))}
	var s Sealer
	buf, err := s.Seal(in, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { buf, _ = s.Seal(in, buf[:0], 0) }); n > 3 {
		t.Errorf("Sealer.Seal into a fitting buffer: %.0f allocs, want <= 3", n)
	}
	if n := testing.AllocsPerRun(100, func() { buf, _ = in.Seal(buf[:0], 0) }); n > 4 {
		t.Errorf("Initial.Seal into a fitting buffer: %.0f allocs, want <= 4", n)
	}
	if got, err := ParseInitial(buf); err != nil || !sameFrames(got.Crypto, in.Crypto) {
		t.Errorf("a kept Sealer's packet does not open to what it sealed: %v", err)
	}
}

// TestRejectPathsAllocFree pins the per-packet reject paths: the errors are
// pre-built, so turning a packet away allocates nothing.
func TestRejectPathsAllocFree(t *testing.T) {
	dg, err := (&Initial{Version: Version1, DCID: []byte{1, 2, 3, 4}, Crypto: whole([]byte{1, 0, 0, 0})}).Seal(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	handshake := append([]byte(nil), dg...)
	handshake[0] = 0xe0 // long header, type 2
	v2 := append([]byte(nil), dg...)
	copy(v2[1:5], []byte{0x6b, 0x33, 0x43, 0xcf}) // QUIC v2 (RFC 9369)
	cases := []struct {
		name string
		dg   []byte
		want error
		open bool // rejected only past ParseInitial's two up-front allocations
	}{
		{"handshake type", handshake, ErrNotInitial, false},
		{"version 2", v2, ErrBadVersion, false},
		{"short header", []byte{0x40, 1, 2, 3}, ErrNotLongHeader, false},
		{"truncated", dg[:9], ErrMalformed, true},
		{"half a datagram", dg[:len(dg)/2], ErrMalformed, true},
	}
	var o Opener
	var p Initial
	for _, c := range cases {
		if _, err := o.Open(&p, c.dg, nil); !errors.Is(err, c.want) {
			t.Errorf("%s: Open err = %v, want %v", c.name, err, c.want)
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = o.Open(&p, c.dg, nil) }); n != 0 {
			t.Errorf("%s: Open allocates %.0f on the reject path", c.name, n)
		}
		if _, err := ParseInitial(c.dg); !errors.Is(err, c.want) {
			t.Errorf("%s: ParseInitial err = %v, want %v", c.name, err, c.want)
		}
		if c.open {
			continue
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = ParseInitial(c.dg) }); n != 0 {
			t.Errorf("%s: ParseInitial allocates %.0f on the reject path", c.name, n)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = ParseLongHeaderCIDs(handshake[:6]) }); n != 0 {
		t.Errorf("ParseLongHeaderCIDs allocates %.0f on a truncated header", n)
	}
}
