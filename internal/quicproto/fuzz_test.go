package quicproto

import (
	"bytes"
	"testing"
)

// fuzzSeeds renders valid sealed Initials — plain, tokened, split-CRYPTO
// and padded, the same shapes tracegen emits — plus truncations and bit
// flips of each, so the fuzzer starts from the decrypt/parse happy path.
func fuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	hello := sampleCrypto()
	shapes := []*Initial{
		{Version: Version1, DCID: []byte{1, 2, 3, 4, 5, 6, 7, 8}, SCID: []byte{9, 10}, CryptoData: hello},
		{Version: Version1, DCID: []byte{0xaa, 0xbb, 0xcc, 0xdd}, Token: []byte("retry-token"), CryptoData: hello},
		{Version: Version1, DCID: []byte{1}, PacketNumber: 1, CryptoOffset: uint64(len(hello) / 2), CryptoData: hello[len(hello)/2:]},
	}
	var out [][]byte
	for _, in := range shapes {
		dg, err := in.Seal(0)
		if err != nil {
			tb.Fatalf("sealing seed: %v", err)
		}
		out = append(out, dg)
	}
	if dg, err := shapes[0].Seal(1300); err == nil {
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
		if !bytes.Equal(q.CryptoData, p.CryptoData) || q.CryptoOffset != p.CryptoOffset ||
			q.PacketNumber != p.PacketNumber || !bytes.Equal(q.DCID, p.DCID) ||
			!bytes.Equal(q.SCID, p.SCID) || !bytes.Equal(q.Token, p.Token) {
			t.Fatalf("long-lived Opener decoded %+v, fresh one %+v", q, *p)
		}
		// Accepted packets must respect the reassembly bounds: CIDs capped
		// at the RFC 9000 maximum, CRYPTO capped so an attacker-controlled
		// offset varint cannot size an allocation.
		if len(p.DCID) > 20 || len(p.SCID) > 20 {
			t.Fatalf("oversized CID: dcid=%d scid=%d", len(p.DCID), len(p.SCID))
		}
		if len(p.CryptoData) > maxCryptoLen || p.CryptoOffset > maxCryptoLen {
			t.Fatalf("CRYPTO over cap: len=%d off=%d", len(p.CryptoData), p.CryptoOffset)
		}
		if p.WireSize <= 0 || p.WireSize > len(data) {
			t.Fatalf("WireSize %d outside datagram (%d bytes)", p.WireSize, len(data))
		}
		// Re-seal and re-parse: the decrypted view must survive its own
		// canonical encoding.
		dg, err := p.Seal(0)
		if err != nil {
			t.Fatalf("re-seal of parsed Initial failed: %v", err)
		}
		rt, err := ParseInitial(dg)
		if err != nil {
			t.Fatalf("reparse of re-sealed Initial failed: %v", err)
		}
		if !bytes.Equal(rt.CryptoData, p.CryptoData) || rt.CryptoOffset != p.CryptoOffset {
			t.Fatalf("CRYPTO did not round-trip: %d/%d bytes at %d/%d",
				len(rt.CryptoData), len(p.CryptoData), rt.CryptoOffset, p.CryptoOffset)
		}
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
