package quicproto

import (
	"bytes"
	"slices"
	"testing"
)

// fuzzSeeds renders valid sealed Initials — plain, tokened, split-CRYPTO
// and padded, the same shapes tracegen emits, and a scattered frame list —
// plus truncations and bit flips of each, so the fuzzer starts from the
// decrypt/parse happy path.
func fuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	hello := sampleCrypto()
	shapes := []*Initial{
		{Version: Version1, DCID: []byte{1, 2, 3, 4, 5, 6, 7, 8}, SCID: []byte{9, 10}, Crypto: whole(hello)},
		{Version: Version1, DCID: []byte{0xaa, 0xbb, 0xcc, 0xdd}, Token: []byte("retry-token"), Crypto: whole(hello)},
		{Version: Version1, DCID: []byte{1}, PacketNumber: 1, Crypto: []CryptoFrame{{Offset: uint64(len(hello) / 2), Data: hello[len(hello)/2:]}}},
		// A hello scattered over frames out of order, overlapping and with a hole.
		{Version: Version1, DCID: []byte{2}, Crypto: []CryptoFrame{{Offset: 100, Data: hello[100:200]}, {Data: hello[:120]}, {Offset: 250, Data: hello[250:]}}},
	}
	var out [][]byte
	for _, in := range shapes {
		dg, err := in.Seal(nil, 0)
		if err != nil {
			tb.Fatalf("sealing seed: %v", err)
		}
		out = append(out, dg)
	}
	if dg, err := shapes[0].Seal(nil, 1300); err == nil {
		out = append(out, dg)
	}
	// A scattered hello at the CRYPTO-frame bound, and one frame over it.
	out = append(out, scatteredInitial(tb, hello, maxCryptoSegments), scatteredInitial(tb, hello, maxCryptoSegments+1))
	mutated := make([][]byte, 0, 3*len(out))
	for _, dg := range out {
		mutated = append(mutated, dg[:len(dg)/2], dg[:7])
		flip := append([]byte(nil), dg...)
		flip[len(flip)/4] ^= 0x10
		mutated = append(mutated, flip)
	}
	return append(out, mutated...)
}

// sampleCrypto is a TLS-shaped CRYPTO payload; the parser never interprets
// it, but realistic sizes exercise the frame walk and padding paths.
func sampleCrypto() []byte {
	b := make([]byte, 300)
	b[0] = 0x01 // handshake type: client_hello
	b[3] = 0x03
	for i := 4; i < len(b); i++ {
		b[i] = byte(i * 31)
	}
	return b
}

func FuzzParseInitial(f *testing.F) {
	for _, dg := range fuzzSeeds(f) {
		f.Add(dg)
	}
	// One Opener for the whole run, as a pipeline keeps one for its lifetime:
	// whatever an input leaves behind in it is there for the next input to
	// trip over. Every input is also parsed with a fresh Opener, and the two
	// must agree.
	var used Opener
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParseInitial(data)
		var q Initial
		if _, uerr := used.Open(&q, data, nil); uerr != err {
			t.Fatalf("fresh Opener: %v; long-lived Opener: %v", err, uerr)
		}
		if err != nil {
			return
		}
		if !sameFrames(q.Crypto, p.Crypto) ||
			q.PacketNumber != p.PacketNumber || !bytes.Equal(q.DCID, p.DCID) ||
			!bytes.Equal(q.SCID, p.SCID) || !bytes.Equal(q.Token, p.Token) {
			t.Fatalf("long-lived Opener decoded %+v, fresh one %+v", q, *p)
		}
		// Accepted packets must respect the parse bounds: CIDs capped at the
		// RFC 9000 maximum, CRYPTO frames capped in number and in the offsets
		// they reach, so an attacker-controlled varint names nothing a flow's
		// 32-bit reassembler cannot hold.
		if len(p.DCID) > 20 || len(p.SCID) > 20 {
			t.Fatalf("oversized CID: dcid=%d scid=%d", len(p.DCID), len(p.SCID))
		}
		if len(p.Crypto) > maxCryptoSegments {
			t.Fatalf("%d CRYPTO frames listed", len(p.Crypto))
		}
		for _, c := range p.Crypto {
			if len(c.Data) == 0 || c.Offset+uint64(len(c.Data)) > maxCryptoLen {
				t.Fatalf("CRYPTO frame of %d bytes at %d listed", len(c.Data), c.Offset)
			}
		}
		if p.WireSize <= 0 || p.WireSize > len(data) {
			t.Fatalf("WireSize %d outside datagram (%d bytes)", p.WireSize, len(data))
		}
		// Re-seal and re-parse: the frame list must survive its own
		// canonical encoding, frame for frame and in order.
		dg, err := p.Seal(nil, 0)
		if err != nil {
			t.Fatalf("re-seal of parsed Initial failed: %v", err)
		}
		rt, err := ParseInitial(dg)
		if err != nil {
			t.Fatalf("reparse of re-sealed Initial failed: %v", err)
		}
		if !sameFrames(rt.Crypto, p.Crypto) {
			t.Fatalf("CRYPTO frames did not round-trip: %d frames, then %d", len(p.Crypto), len(rt.Crypto))
		}
	})
}

// sameFrames reports whether two CRYPTO frame lists are equal, frame for
// frame and in order.
func sameFrames(a, b []CryptoFrame) bool {
	return slices.EqualFunc(a, b, func(x, y CryptoFrame) bool {
		return x.Offset == y.Offset && bytes.Equal(x.Data, y.Data)
	})
}

func FuzzParseLongHeaderCIDs(f *testing.F) {
	for _, dg := range fuzzSeeds(f) {
		f.Add(dg)
	}
	// The 0-RTT and Handshake shapes tracegen renders: same CID prefix, no
	// decryptable payload.
	f.Add([]byte{0xd0, 0, 0, 0, 1, 2, 7, 7, 1, 9, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		cids, err := ParseLongHeaderCIDs(data)
		if err != nil {
			return
		}
		if !IsLongHeader(data) {
			t.Fatal("accepted a short-header datagram")
		}
		if cids.Type != LongHeaderType(data) {
			t.Fatalf("Type = %d, LongHeaderType = %d", cids.Type, LongHeaderType(data))
		}
		if len(cids.DCID) > 20 || len(cids.SCID) > 20 {
			t.Fatalf("oversized CID: dcid=%d scid=%d", len(cids.DCID), len(cids.SCID))
		}
	})
}

// paramSeeds are extension-57 bodies: the parameters a browser sends, one
// empty body, and a list longer than any of them whose values all carry
// bytes, which the fuzz target parses first to leave its target dirty.
func paramSeeds() (dirty []byte, seeds [][]byte) {
	var long TransportParameters
	for i := 0; i < 64; i++ {
		long.AppendBytes(uint64(0x40+i), []byte{byte(i), 0xee})
	}
	var browser TransportParameters
	browser.AppendUint(ParamMaxIdleTimeout, 30000)
	browser.AppendUint(ParamInitialMaxData, 15<<20)
	browser.AppendBytes(ParamDisableActiveMigration, nil)
	browser.AppendBytes(ParamInitialSourceConnectionID, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	browser.AppendUint(ParamGreaseQuicBit, 0)
	b := browser.Marshal()
	return long.Marshal(), [][]byte{b, b[:len(b)/2], {}, {0x40}}
}

// FuzzParseIntoMatchesParse: parsing into a TransportParameters that
// earlier inputs left dirty — the long list of paramSeeds, then first,
// accepted or not — gives what ParseTransportParameters gives on a fresh
// one; a rejected body leaves the list as it was, and an accepted one keeps
// no parameter past the new list's end that could hold an earlier input's
// bytes.
func FuzzParseIntoMatchesParse(f *testing.F) {
	dirty, seeds := paramSeeds()
	for _, b := range seeds {
		f.Add(dirty, b)
	}
	f.Fuzz(func(t *testing.T, first, data []byte) {
		var tp TransportParameters
		if err := tp.ParseInto(dirty); err != nil {
			t.Fatal(err)
		}
		_ = tp.ParseInto(first)
		before := slices.Clone(tp.Params)
		want, werr := ParseTransportParameters(data)
		if err := tp.ParseInto(data); err != werr {
			t.Fatalf("ParseInto into used parameters: %v; ParseTransportParameters: %v", err, werr)
		}
		same := func(a, b []TransportParameter) bool {
			return slices.EqualFunc(a, b, func(x, y TransportParameter) bool {
				return x.ID == y.ID && bytes.Equal(x.Value, y.Value)
			})
		}
		if werr != nil {
			if !same(tp.Params, before) {
				t.Fatal("a rejected body changed the parameters it was parsed into")
			}
			return
		}
		if !same(tp.Params, want.Params) {
			t.Fatalf("ParseInto into used parameters gave %+v; ParseTransportParameters gave %+v", tp.Params, want.Params)
		}
		for _, p := range tp.Params[len(tp.Params):cap(tp.Params)] {
			if p.Value != nil {
				t.Fatal("a parameter past the list's end still holds an earlier input's bytes")
			}
		}
	})
}
