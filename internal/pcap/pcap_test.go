package pcap

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
	"time"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := time.Date(2023, 7, 7, 12, 0, 0, 123456000, time.UTC)
	pkts := [][]byte{{1, 2, 3}, {4, 5, 6, 7, 8}, make([]byte, 1500)}
	for i, p := range pkts {
		if err := w.WritePacket(ts.Add(time.Duration(i)*time.Second), p); err != nil {
			t.Fatal(err)
		}
	}

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if lt := binary.LittleEndian.Uint32(buf.Bytes()[20:]); lt != LinkTypeEthernet {
		t.Errorf("written link type = %d", lt)
	}
	for i, want := range pkts {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if !bytes.Equal(got.Data, want) {
			t.Errorf("packet %d data mismatch (%d vs %d bytes)", i, len(got.Data), len(want))
		}
		if got.OrigLen != len(want) {
			t.Errorf("packet %d OrigLen = %d", i, got.OrigLen)
		}
		wantTS := ts.Add(time.Duration(i) * time.Second)
		if !got.Timestamp.Equal(wantTS) {
			t.Errorf("packet %d ts = %v, want %v", i, got.Timestamp, wantTS)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("after last packet err = %v, want EOF", err)
	}
}

func TestSnaplenTruncation(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, 64)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 200)
	for i := range data {
		data[i] = byte(i)
	}
	if err := w.WritePacket(time.Unix(0, 0), data); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Data) != 64 || got.OrigLen != 200 {
		t.Errorf("capLen=%d origLen=%d, want 64/200", len(got.Data), got.OrigLen)
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := NewReader(bytes.NewReader(make([]byte, 24))); err != ErrBadMagic {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestTruncatedHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte{1, 2, 3})); err == nil {
		t.Error("expected error for short header")
	}
}

func TestBigEndianAndNanos(t *testing.T) {
	// Hand-craft a big-endian nanosecond file with one 2-byte packet.
	var buf bytes.Buffer
	be := binary.BigEndian
	hdr := make([]byte, 24)
	be.PutUint32(hdr[0:], magicNanos)
	be.PutUint16(hdr[4:], 2)
	be.PutUint16(hdr[6:], 4)
	be.PutUint32(hdr[16:], 65535)
	be.PutUint32(hdr[20:], LinkTypeEthernet)
	buf.Write(hdr)
	rec := make([]byte, 16)
	be.PutUint32(rec[0:], 1700000000)
	be.PutUint32(rec[4:], 42) // 42ns
	be.PutUint32(rec[8:], 2)
	be.PutUint32(rec[12:], 2)
	buf.Write(rec)
	buf.Write([]byte{0xaa, 0xbb})

	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	p, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if p.Timestamp.Nanosecond() != 42 {
		t.Errorf("nanos = %d, want 42", p.Timestamp.Nanosecond())
	}
	if !bytes.Equal(p.Data, []byte{0xaa, 0xbb}) {
		t.Errorf("data = %x", p.Data)
	}
}

func TestTruncatedRecord(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 0)
	_ = w.WritePacket(time.Unix(0, 0), []byte{1, 2, 3, 4})
	full := buf.Bytes()
	// Cut mid-record.
	r, err := NewReader(bytes.NewReader(full[:len(full)-2]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Errorf("err = %v, want a non-EOF error", err)
	}
}

func TestInsaneCaptureLength(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 100)
	_ = w.WritePacket(time.Unix(0, 0), []byte{1})
	raw := buf.Bytes()
	// Corrupt the capture length field far beyond snaplen.
	binary.LittleEndian.PutUint32(raw[24+8:], 1<<30)
	r, err := NewReader(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil {
		t.Error("expected sanity-bound error")
	}
}

// classicFile is a little-endian libpcap file with the given header snap
// length and one record claiming capLen bytes, followed by data.
func classicFile(snaplen, capLen uint32, data []byte) []byte {
	le := binary.LittleEndian
	raw := make([]byte, 40, 40+len(data))
	le.PutUint32(raw[0:], magicMicros)
	le.PutUint16(raw[4:], 2)
	le.PutUint16(raw[6:], 4)
	le.PutUint32(raw[16:], snaplen)
	le.PutUint32(raw[20:], LinkTypeEthernet)
	le.PutUint32(raw[24+8:], capLen)
	le.PutUint32(raw[24+12:], capLen)
	return append(raw, data...)
}

// TestCaptureLengthBoundDoesNotWrap pins the sanity bound's arithmetic: in
// 32 bits, snaplen+65536 wraps for a header snap length near 2^32, so a
// 40-byte file could make Next allocate a GiB before finding the data
// missing, and a real record under a huge snap length was refused.
func TestCaptureLengthBoundDoesNotWrap(t *testing.T) {
	r, err := NewReader(bytes.NewReader(classicFile(0x80000000, 1<<30, nil)))
	if err != nil {
		t.Fatal(err)
	}
	before := heapAllocBytes()
	_, err = r.Next()
	if grew := heapAllocBytes() - before; grew > 1<<20 {
		t.Errorf("a 40-byte file made Next allocate %d bytes", grew)
	}
	if err == nil || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("err = %v, want the sanity-bound error before any read", err)
	}

	data := make([]byte, 70000)
	r, err = NewReader(bytes.NewReader(classicFile(0xffffffff, uint32(len(data)), data)))
	if err != nil {
		t.Fatal(err)
	}
	if pkt, err := r.Next(); err != nil || len(pkt.Data) != len(data) {
		t.Errorf("a %d-byte record under snap length 0xffffffff: %d bytes, err %v", len(data), len(pkt.Data), err)
	}
}
