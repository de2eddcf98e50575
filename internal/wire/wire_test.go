package wire

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"
)

func TestReaderBasics(t *testing.T) {
	buf := []byte{0xab, 0x12, 0x34, 0x0c, 0x0f, 0xfe}
	buf = binary.BigEndian.AppendUint32(buf, 0xdeadbeef)
	buf = binary.BigEndian.AppendUint64(buf, 0x0102030405060708)
	buf = append(buf, 1, 2, 3)

	r := NewReader(buf)
	if v, err := r.Uint8(); err != nil || v != 0xab {
		t.Fatalf("Uint8 = %#x, %v", v, err)
	}
	if v, err := r.Uint16(); err != nil || v != 0x1234 {
		t.Fatalf("Uint16 = %#x, %v", v, err)
	}
	if v, err := r.Uint24(); err != nil || v != 0x00c0ffe {
		t.Fatalf("Uint24 = %#x, %v", v, err)
	}
	if v, err := r.Uint32(); err != nil || v != 0xdeadbeef {
		t.Fatalf("Uint32 = %#x, %v", v, err)
	}
	if v, err := r.Uint64(); err != nil || v != 0x0102030405060708 {
		t.Fatalf("Uint64 = %#x, %v", v, err)
	}
	b, err := r.Bytes(3)
	if err != nil || !bytes.Equal(b, []byte{1, 2, 3}) {
		t.Fatalf("Bytes = %v, %v", b, err)
	}
	if !r.Empty() {
		t.Fatalf("reader not empty, %d left", r.Len())
	}
}

func TestReaderShortBuffer(t *testing.T) {
	r := NewReader([]byte{1})
	if _, err := r.Uint16(); err != ErrShortBuffer {
		t.Fatalf("Uint16 on 1 byte: err = %v, want ErrShortBuffer", err)
	}
	if _, err := r.Uint8(); err != nil {
		t.Fatalf("Uint8 after failed Uint16 should still work: %v", err)
	}
	if _, err := r.Uint8(); err != ErrShortBuffer {
		t.Fatalf("Uint8 on empty: err = %v", err)
	}
	if _, err := r.Bytes(1); err != ErrShortBuffer {
		t.Fatalf("Bytes(1) on empty: err = %v", err)
	}
	if err := r.Skip(1); err != ErrShortBuffer {
		t.Fatalf("Skip(1) on empty: err = %v", err)
	}
	if _, err := NewReader(nil).Varint(); err != ErrShortBuffer {
		t.Fatalf("Varint on empty: err = %v", err)
	}
}

func TestReaderNegativeCounts(t *testing.T) {
	r := NewReader([]byte{1, 2, 3})
	if _, err := r.Bytes(-1); err != ErrShortBuffer {
		t.Fatalf("Bytes(-1): err = %v", err)
	}
	if err := r.Skip(-1); err != ErrShortBuffer {
		t.Fatalf("Skip(-1): err = %v", err)
	}
}

func TestVarintKnownEncodings(t *testing.T) {
	// Examples from RFC 9000 Appendix A.1.
	cases := []struct {
		val uint64
		enc []byte
	}{
		{0, []byte{0x00}},
		{37, []byte{0x25}},
		{15293, []byte{0x7b, 0xbd}},
		{494878333, []byte{0x9d, 0x7f, 0x3e, 0x7d}},
		{151288809941952652, []byte{0xc2, 0x19, 0x7c, 0x5e, 0xff, 0x14, 0xe8, 0x8c}},
	}
	for _, c := range cases {
		if got := AppendVarint(nil, c.val); !bytes.Equal(got, c.enc) {
			t.Errorf("AppendVarint(%d) = %x, want %x", c.val, got, c.enc)
		}
		got, err := NewReader(c.enc).Varint()
		if err != nil || got != c.val {
			t.Errorf("decode %x = %d, %v; want %d", c.enc, got, err, c.val)
		}
	}
}

func TestVarintRange(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("AppendVarint(2^62) did not panic")
			}
		}()
		AppendVarint(nil, 1<<62)
	}()
	if n := VarintLen(1 << 62); n != 0 {
		t.Fatalf("VarintLen(2^62) = %d, want 0", n)
	}
	if n := VarintLen(math.MaxUint64); n != 0 {
		t.Fatalf("VarintLen(max) = %d, want 0", n)
	}
}

func TestVarintRoundTripProperty(t *testing.T) {
	f := func(v uint64) bool {
		v &= (1 << 62) - 1
		enc := AppendVarint(nil, v)
		if len(enc) != VarintLen(v) {
			return false
		}
		got, err := NewReader(enc).Varint()
		return err == nil && got == v
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUintRoundTripProperty(t *testing.T) {
	f := func(a uint8, b uint16, c uint32, d uint64) bool {
		buf := binary.BigEndian.AppendUint16([]byte{a}, b)
		buf = binary.BigEndian.AppendUint32(buf, c)
		buf = binary.BigEndian.AppendUint64(buf, d)
		r := NewReader(buf)
		ga, _ := r.Uint8()
		gb, _ := r.Uint16()
		gc, _ := r.Uint32()
		gd, _ := r.Uint64()
		return ga == a && gb == b && gc == c && gd == d && r.Empty()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGrease(t *testing.T) {
	for i := 0; i < 16; i++ {
		v := GreaseValue(i)
		if !IsGrease(v) {
			t.Errorf("GreaseValue(%d) = %#x not recognized as GREASE", i, v)
		}
	}
	if GreaseValue(-1) != GreaseValue(15) {
		t.Errorf("negative index should wrap")
	}
	for _, v := range []uint16{0x1301, 0x0000, 0xc02b, 0x0a1a, 0x1a0a} {
		if IsGrease(v) {
			t.Errorf("IsGrease(%#x) = true, want false", v)
		}
	}
}

func TestGreaseTransportParam(t *testing.T) {
	for _, id := range []uint64{27, 58, 89, 27 + 31*100} {
		if !GreaseTransportParam(id) {
			t.Errorf("GreaseTransportParam(%d) = false", id)
		}
	}
	for _, id := range []uint64{0, 1, 26, 28, 57} {
		if GreaseTransportParam(id) {
			t.Errorf("GreaseTransportParam(%d) = true", id)
		}
	}
}

func TestRestAndOffset(t *testing.T) {
	r := NewReader([]byte{1, 2, 3, 4})
	if _, err := r.Uint8(); err != nil {
		t.Fatal(err)
	}
	if r.Offset() != 1 {
		t.Fatalf("Offset = %d", r.Offset())
	}
	rest, err := r.Bytes(r.Len())
	if err != nil || !bytes.Equal(rest, []byte{2, 3, 4}) || !r.Empty() {
		t.Fatalf("rest = %v, %v, empty=%v", rest, err, r.Empty())
	}
}

func TestSkipZeros(t *testing.T) {
	// Every run length around the 8-byte stride, at every alignment, ending
	// either at a nonzero byte or at the end of the buffer.
	for lead := 0; lead < 9; lead++ {
		for run := 0; run < 40; run++ {
			for _, tail := range [][]byte{nil, {7, 0, 0}} {
				buf := append(bytes.Repeat([]byte{0xff}, lead), make([]byte, run)...)
				buf = append(buf, tail...)
				r := NewReader(buf)
				if err := r.Skip(lead); err != nil {
					t.Fatal(err)
				}
				r.SkipZeros()
				if r.Offset() != lead+run {
					t.Fatalf("lead=%d run=%d tail=%v: offset %d, want %d", lead, run, tail, r.Offset(), lead+run)
				}
			}
		}
	}
}

func BenchmarkVarintDecode(b *testing.B) {
	buf := AppendVarint(nil, 494878333)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := Reader{buf: buf}
		if _, err := r.Varint(); err != nil {
			b.Fatal(err)
		}
	}
}
