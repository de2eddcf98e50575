package tlsproto

import (
	"bytes"
	"errors"
	"testing"
)

// records wraps handshake bytes in TLS records, one per fragment.
func records(frags ...[]byte) []byte {
	var out []byte
	for _, f := range frags {
		out = append(out, recordTypeHandshake, 0x03, 0x01, byte(len(f)>>8), byte(len(f)))
		out = append(out, f...)
	}
	return out
}

// TestParseRecordDecidesBeforeParsing walks one hello through every state a
// TCP stream presents it in — each a prefix of the last — and checks the
// three-way decision: keep buffering (ErrMalformed), parse, or give up.
func TestParseRecordDecidesBeforeParsing(t *testing.T) {
	want := sampleHello()
	hs := want.Marshal()
	one := records(hs)
	for n := 0; n < len(one); n++ {
		if _, err := ParseRecord(one[:n]); !errors.Is(err, ErrMalformed) {
			t.Fatalf("%d of %d bytes: err = %v, want ErrMalformed (need more)", n, len(one), err)
		}
	}
	// Complete, also with the next record's bytes already behind it.
	for _, stream := range [][]byte{one, append(append([]byte(nil), one...), 23, 3, 3, 0, 9, 1)} {
		got, err := ParseRecord(stream)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Marshal(), hs) {
			t.Fatal("single-record hello did not round-trip")
		}
		// Parsed where it lies: the stream backs the returned slices.
		e, _ := got.Extension(ExtServerName)
		if off := bytes.Index(stream, e.Data); off < 0 || &stream[off] != &e.Data[0] {
			t.Error("single-record hello does not alias the stream")
		}
	}

	// Split so that even the 4-byte handshake header spans records, with an
	// empty record thrown in.
	split := records(hs[:2], nil, hs[2:100], hs[100:])
	for n := 0; n < len(split); n++ {
		if _, err := ParseRecord(split[:n]); !errors.Is(err, ErrMalformed) {
			t.Fatalf("split, %d of %d bytes: err = %v, want ErrMalformed", n, len(split), err)
		}
	}
	got, err := ParseRecord(split)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Marshal(), hs) {
		t.Fatal("multi-record hello did not round-trip")
	}

	// A later record of another type ends the wait.
	if _, err := ParseRecord(append(records(hs[:50]), 23, 3, 3, 0, 1, 0)); err != ErrNotHandshake {
		t.Errorf("application data behind half a hello: err = %v, want ErrNotHandshake", err)
	}
}

// TestRejectPathsAllocFree pins the reject paths a tap takes per segment:
// half a record, another record type, another handshake type.
func TestRejectPathsAllocFree(t *testing.T) {
	rec := sampleHello().MarshalRecord()
	appData := append([]byte(nil), rec...)
	appData[0] = 23
	serverHello := append([]byte(nil), rec...)
	serverHello[5] = 2
	for _, c := range []struct {
		name   string
		stream []byte
		want   error
	}{
		{"half a record", rec[:len(rec)/2], ErrMalformed},
		{"three header bytes", rec[:3], ErrMalformed},
		{"application data", appData, ErrNotHandshake},
		{"one byte of application data", appData[:1], ErrNotHandshake},
		{"server hello", serverHello, ErrNotClientHello},
	} {
		if _, err := ParseRecord(c.stream); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
		if n := testing.AllocsPerRun(100, func() { _, _ = ParseRecord(c.stream) }); n != 0 {
			t.Errorf("%s: ParseRecord allocates %.0f on the reject path", c.name, n)
		}
	}
	msg := rec[5:]
	if n := testing.AllocsPerRun(100, func() { _, _ = Parse(msg[:len(msg)/2]) }); n != 0 {
		t.Errorf("Parse allocates %.0f on a truncated message", n)
	}
}

// TestParseAllocs pins the accept path: the ClientHello, its cipher suites
// and its extensions, each allocated once.
func TestParseAllocs(t *testing.T) {
	rec := sampleHello().MarshalRecord()
	if n := testing.AllocsPerRun(100, func() { _, _ = ParseRecord(rec) }); n > 3 {
		t.Errorf("ParseRecord of a single-record hello: %.0f allocs, want <= 3", n)
	}
}

// manyExtensions is a hello carrying n empty extensions.
func manyExtensions(n int) []byte {
	ch := &ClientHello{LegacyVersion: VersionTLS12, CipherSuites: []uint16{0x1301}, CompressionMethods: []byte{0}}
	for i := 0; i < n; i++ {
		ch.Extensions = append(ch.Extensions, Extension{Type: uint16(0x100 + i)})
	}
	return ch.Marshal()
}

func TestMaxExtensions(t *testing.T) {
	ch, err := Parse(manyExtensions(maxExtensions))
	if err != nil || len(ch.Extensions) != maxExtensions {
		t.Fatalf("%d extensions: %d parsed, err = %v", maxExtensions, len(ch.Extensions), err)
	}
	if _, err := Parse(manyExtensions(maxExtensions + 1)); !errors.Is(err, ErrMalformed) {
		t.Errorf("%d extensions: err = %v, want ErrMalformed", maxExtensions+1, err)
	}
}
