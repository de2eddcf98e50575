package tlsproto_test

import (
	"bytes"
	"math/rand/v2"
	"slices"
	"testing"

	"videoplat/internal/fingerprint"
	"videoplat/internal/tlsproto"
)

// The fuzz corpus is seeded from the same renderer the scenario tests use:
// every platform profile's ClientHello (TCP and QUIC, plus the ECH, 0-RTT
// resumption and open-set variants), each also truncated and bit-flipped so
// the fuzzer starts from near-valid mutants rather than random bytes.
func corpusHellos(tb testing.TB) [][]byte {
	tb.Helper()
	rng := rand.New(rand.NewPCG(7, 7))
	var out [][]byte
	add := func(label string, prov fingerprint.Provider, tr fingerprint.Transport, opts fingerprint.Options) {
		fl, err := fingerprint.Generate(rng, label, prov, tr, opts)
		if err != nil {
			tb.Fatalf("generating %s/%s: %v", label, prov, err)
		}
		out = append(out, fl.Hello.Marshal())
	}
	for _, label := range fingerprint.AllPlatformLabels() {
		for _, prov := range fingerprint.AllProviders() {
			if !fingerprint.SupportMatrix(label, prov) {
				continue
			}
			add(label, prov, fingerprint.TCP, fingerprint.Options{})
			if fingerprint.SupportsQUIC(label, prov) {
				add(label, prov, fingerprint.QUIC, fingerprint.Options{ECH: true})
			}
		}
	}
	label, prov := "android_chrome", fingerprint.YouTube
	add(label, prov, fingerprint.TCP, fingerprint.Options{ECH: true})
	add(label, prov, fingerprint.TCP, fingerprint.Options{ZeroRTT: true})
	add(label, prov, fingerprint.TCP, fingerprint.Options{OpenSet: true})

	// One extension past the parser's per-hello bound (maxExtensions, 64).
	over := &tlsproto.ClientHello{LegacyVersion: tlsproto.VersionTLS12,
		CipherSuites: []uint16{0x1301}, CompressionMethods: []byte{0}}
	for i := 0; i < 65; i++ {
		over.Extensions = append(over.Extensions, tlsproto.Extension{Type: uint16(0x100 + i)})
	}
	out = append(out, over.Marshal())

	mutated := make([][]byte, 0, 3*len(out))
	for _, msg := range out {
		for _, cut := range []int{1, len(msg) / 2, len(msg) - 1} {
			if cut > 0 && cut < len(msg) {
				mutated = append(mutated, msg[:cut])
			}
		}
		flip := append([]byte(nil), msg...)
		flip[len(flip)/3] ^= 0x40
		mutated = append(mutated, flip)
	}
	return append(out, mutated...)
}

// exercise walks every accessor, and runs every extension body parser on
// every extension whatever its type, so a malformed-but-accepted hello
// cannot hide an out-of-bounds read behind a lazily parsed extension.
func exercise(ch *tlsproto.ClientHello) {
	ch.ServerName()
	ch.ExtensionTypes()
	ch.SupportedGroups()
	ch.ECPointFormats()
	ch.ALPNProtocols()
	ch.CompressCertificateAlgorithms()
	ch.RecordSizeLimit()
	ch.HasExtension(tlsproto.ExtEncryptedClientHello)
	for _, e := range ch.Extensions {
		e.AppendUint16List(nil)
		e.AppendU8Uint16List(nil)
		e.AppendKeyShareGroups(nil)
		e.U8PrefixedBytes()
		e.AppendALPN(nil)
	}
}

func FuzzParse(f *testing.F) {
	for _, msg := range corpusHellos(f) {
		f.Add(msg)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ch, err := tlsproto.Parse(data)
		if err != nil {
			return
		}
		exercise(ch)
		// A parsed hello must survive the canonical re-encode: Marshal output
		// is what the trace generator feeds back through this parser.
		if _, err := tlsproto.Parse(ch.Marshal()); err != nil {
			t.Fatalf("reparse of Marshal() failed: %v", err)
		}
	})
}

func FuzzParseRecord(f *testing.F) {
	for _, msg := range corpusHellos(f) {
		rec := append([]byte{0x16, 0x03, 0x01, byte(len(msg) >> 8), byte(len(msg))}, msg...)
		f.Add(rec)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ch, err := tlsproto.ParseRecord(data)
		if err != nil {
			return
		}
		exercise(ch)
		if _, err := tlsproto.ParseRecord(ch.MarshalRecord()); err != nil {
			t.Fatalf("reparse of MarshalRecord() failed: %v", err)
		}
	})
}

// dirtyHello is a hello at the parser's bounds: a full session ID, many
// cipher suites and maxExtensions extensions, each carrying bytes. Parsed
// into a ClientHello first, it leaves every list longer than any other
// input's and every aliased field pointing at its own bytes.
func dirtyHello() []byte {
	ch := &tlsproto.ClientHello{LegacyVersion: tlsproto.VersionTLS12, SessionID: make([]byte, 32), CompressionMethods: []byte{0, 1}}
	for i := range ch.Random {
		ch.Random[i] = byte(i)
	}
	for i := 0; i < 200; i++ {
		ch.CipherSuites = append(ch.CipherSuites, uint16(0xc000+i))
	}
	for i := 0; i < 64; i++ {
		ch.Extensions = append(ch.Extensions, tlsproto.Extension{Type: uint16(0x200 + i), Data: []byte{byte(i), 0xee, 0xee}})
	}
	return ch.Marshal()
}

// sameHello reports whether two parsed hellos say the same thing, reading a
// nil list and an empty one alike.
func sameHello(a, b *tlsproto.ClientHello) bool {
	return a.LegacyVersion == b.LegacyVersion && a.Random == b.Random &&
		bytes.Equal(a.SessionID, b.SessionID) && slices.Equal(a.CipherSuites, b.CipherSuites) &&
		bytes.Equal(a.CompressionMethods, b.CompressionMethods) &&
		slices.EqualFunc(a.Extensions, b.Extensions, func(x, y tlsproto.Extension) bool {
			return x.Type == y.Type && bytes.Equal(x.Data, y.Data)
		}) &&
		a.HandshakeLength == b.HandshakeLength && a.ExtensionsLength == b.ExtensionsLength
}

// FuzzParseIntoMatchesParse: parsing into a ClientHello that earlier inputs
// left dirty — the hello at the parser's bounds, then first, accepted or
// not — gives what Parse gives on a fresh one, error for error; a rejected
// message leaves the hello as it was, and an accepted one keeps no
// extension past the new list's end that could hold an earlier input's
// bytes. ParseRecordInto is held to ParseRecord the same way, with data cut
// across two records.
func FuzzParseIntoMatchesParse(f *testing.F) {
	dirty := dirtyHello()
	for _, msg := range corpusHellos(f) {
		f.Add(dirty, msg)
	}
	f.Fuzz(func(t *testing.T, first, data []byte) {
		var ch tlsproto.ClientHello
		if err := ch.ParseInto(dirty); err != nil {
			t.Fatal(err)
		}
		_ = ch.ParseInto(first)
		before := ch
		before.CipherSuites, before.Extensions = slices.Clone(ch.CipherSuites), slices.Clone(ch.Extensions)
		want, werr := tlsproto.Parse(data)
		if err := ch.ParseInto(data); err != werr {
			t.Fatalf("ParseInto into a used hello: %v; Parse: %v", err, werr)
		}
		if werr != nil && !sameHello(&ch, &before) {
			t.Fatal("a rejected message changed the hello it was parsed into")
		}
		if werr == nil && !sameHello(&ch, want) {
			t.Fatalf("ParseInto into a used hello gave %+v; Parse gave %+v", ch, *want)
		}
		if werr == nil {
			for _, e := range ch.Extensions[len(ch.Extensions):cap(ch.Extensions)] {
				if e.Data != nil {
					t.Fatal("an extension past the list's end still holds an earlier input's bytes")
				}
			}
		}

		k := len(data) / 2
		rec := append(record(data[:k]), record(data[k:])...)
		want, werr = tlsproto.ParseRecord(rec)
		if err := ch.ParseRecordInto(rec); err != werr {
			t.Fatalf("ParseRecordInto into a used hello: %v; ParseRecord: %v", err, werr)
		}
		if werr == nil && !sameHello(&ch, want) {
			t.Fatalf("ParseRecordInto into a used hello gave %+v; ParseRecord gave %+v", ch, *want)
		}
	})
}

// record wraps b in one TLS handshake record, its length cut to 16 bits.
func record(b []byte) []byte {
	return append([]byte{0x16, 0x03, 0x01, byte(len(b) >> 8), byte(len(b))}, b...)
}
