package pcap

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
	"time"
)

func TestNGRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w, err := NewNGWriter(&buf, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := time.Date(2023, 9, 1, 8, 30, 0, 250_000_000, time.UTC)
	pkts := [][]byte{{1}, {2, 3, 4}, make([]byte, 1500)}
	for i, p := range pkts {
		if err := w.WritePacket(ts.Add(time.Duration(i)*time.Minute), p); err != nil {
			t.Fatal(err)
		}
	}
	r, err := NewNGReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range pkts {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("packet %d: %v", i, err)
		}
		if !bytes.Equal(got.Data, want) {
			t.Errorf("packet %d: %d bytes, want %d", i, len(got.Data), len(want))
		}
		wantTS := ts.Add(time.Duration(i) * time.Minute)
		if !got.Timestamp.Equal(wantTS) {
			t.Errorf("packet %d ts = %v, want %v", i, got.Timestamp, wantTS)
		}
		if got.OrigLen != len(want) {
			t.Errorf("packet %d origlen = %d", i, got.OrigLen)
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("err = %v, want EOF", err)
	}
}

func TestNGRejectsClassicPcap(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, 0)
	_ = w.WritePacket(time.Unix(0, 0), []byte{1})
	if _, err := NewNGReader(bytes.NewReader(buf.Bytes())); err != ErrNotPcapNG {
		t.Errorf("err = %v, want ErrNotPcapNG", err)
	}
}

func TestNGSkipsUnknownBlocks(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewNGWriter(&buf, 0)
	// Inject an unknown block (e.g. name resolution, type 4) between header
	// and packet.
	le := binary.LittleEndian
	unknown := make([]byte, 16)
	le.PutUint32(unknown[0:], 0x00000004)
	le.PutUint32(unknown[4:], 16)
	le.PutUint32(unknown[12:], 16)
	buf.Write(unknown)
	_ = w.WritePacket(time.Unix(100, 0), []byte{9, 9})

	r, err := NewNGReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Data, []byte{9, 9}) {
		t.Errorf("data = %v", got.Data)
	}
}

// tsResolFile is a little-endian pcapng file whose one interface advertises
// the given if_tsresol byte, then one 2-byte packet stamped raw ticks.
func tsResolFile(resol byte, raw uint64) []byte {
	var buf bytes.Buffer
	le := binary.LittleEndian
	shb := make([]byte, 28)
	le.PutUint32(shb[0:], blockSectionHeader)
	le.PutUint32(shb[4:], 28)
	le.PutUint32(shb[8:], byteOrderMagic)
	le.PutUint16(shb[12:], 1)
	le.PutUint32(shb[24:], 28)
	buf.Write(shb)

	idb := make([]byte, 28)
	le.PutUint32(idb[0:], blockInterfaceDesc)
	le.PutUint32(idb[4:], 28)
	le.PutUint16(idb[8:], LinkTypeEthernet)
	le.PutUint32(idb[12:], 65535)
	le.PutUint16(idb[16:], optIfTsResol)
	le.PutUint16(idb[18:], 1)
	idb[20] = resol
	le.PutUint32(idb[24:], 28)
	buf.Write(idb)

	epb := make([]byte, 36)
	le.PutUint32(epb[0:], blockEnhancedPacket)
	le.PutUint32(epb[4:], 36)
	le.PutUint32(epb[8:], 0)
	le.PutUint32(epb[12:], uint32(raw>>32))
	le.PutUint32(epb[16:], uint32(raw))
	le.PutUint32(epb[20:], 2)
	le.PutUint32(epb[24:], 2)
	epb[28], epb[29] = 0xaa, 0xbb
	le.PutUint32(epb[32:], 36)
	buf.Write(epb)
	return buf.Bytes()
}

func TestNGNanosecondResolution(t *testing.T) {
	// An interface advertising 10^-9 resolution and a packet timestamped in
	// nanoseconds.
	ns := uint64(1_700_000_000_123_456_789)
	r, err := NewNGReader(bytes.NewReader(tsResolFile(9, ns)))
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if got.Timestamp.UnixNano() != int64(ns) {
		t.Errorf("ts = %d ns, want %d", got.Timestamp.UnixNano(), ns)
	}
}

// TestNGTimestampResolution covers if_tsresol values at and past the edge of
// 64 bits. A power of two from 2^64 up wrapped ticks to zero and the
// timestamp division panicked; 10^20 and up wrapped to garbage. Both are
// ignored, leaving the microsecond default. A picosecond resolution is
// legal, and its fraction of a second overflowed 64 bits when scaled to
// nanoseconds.
func TestNGTimestampResolution(t *testing.T) {
	for _, c := range []struct {
		resol byte
		raw   uint64
		want  time.Duration // since the epoch
	}{
		{0x80 | 10, 7*1024 + 512, 7500 * time.Millisecond},
		{0x80 | 63, 1<<63 + 1<<62, time.Second + 500*time.Millisecond},
		{0x80 | 64, 5_000_001, 5*time.Second + time.Microsecond},
		{0xff, 5_000_001, 5*time.Second + time.Microsecond},
		{19, 4_000_000_000_000_000_000, 400 * time.Millisecond},
		{20, 5_000_001, 5*time.Second + time.Microsecond},
		{64, 5_000_001, 5*time.Second + time.Microsecond},
		{12, 10_000_123_456_789_012, 10_000*time.Second + 123_456_789},
	} {
		r, err := NewNGReader(bytes.NewReader(tsResolFile(c.resol, c.raw)))
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Next()
		if err != nil {
			t.Fatalf("if_tsresol %#x: %v", c.resol, err)
		}
		if d := got.Timestamp.Sub(time.Unix(0, 0)); d != c.want {
			t.Errorf("if_tsresol %#x, %d ticks: %v since the epoch, want %v", c.resol, c.raw, d, c.want)
		}
	}
}

func TestOpenReaderSniffsBothFormats(t *testing.T) {
	var classic bytes.Buffer
	cw, _ := NewWriter(&classic, 0)
	_ = cw.WritePacket(time.Unix(1, 0), []byte{1, 2})

	var ng bytes.Buffer
	nw, _ := NewNGWriter(&ng, 0)
	_ = nw.WritePacket(time.Unix(1, 0), []byte{3, 4})

	for name, raw := range map[string][]byte{"classic": classic.Bytes(), "ng": ng.Bytes()} {
		r, err := OpenReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pkt, err := r.Next()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(pkt.Data) != 2 {
			t.Errorf("%s: data = %v", name, pkt.Data)
		}
	}
}

func TestNGTruncatedBlock(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewNGWriter(&buf, 0)
	_ = w.WritePacket(time.Unix(5, 0), []byte{1, 2, 3, 4, 5})
	raw := buf.Bytes()
	r, err := NewNGReader(bytes.NewReader(raw[:len(raw)-3]))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Errorf("err = %v, want decode error", err)
	}
}

// TestNGTruncatedBlockHeader cuts the file inside a block's 8-byte header,
// not its body: that is damage too, reported as an error as Reader reports a
// cut record header, not a clean io.EOF.
func TestNGTruncatedBlockHeader(t *testing.T) {
	var buf bytes.Buffer
	w, _ := NewNGWriter(&buf, 0)
	_ = w.WritePacket(time.Unix(5, 0), []byte{1, 2, 3, 4, 5})
	whole := len(buf.Bytes())
	_ = w.WritePacket(time.Unix(6, 0), []byte{6, 7, 8})
	for cut := 1; cut < 8; cut++ {
		r, err := NewNGReader(bytes.NewReader(buf.Bytes()[:whole+cut]))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.Next(); err != nil {
			t.Fatalf("cut %d: first packet: %v", cut, err)
		}
		if _, err := r.Next(); err == nil || err == io.EOF {
			t.Errorf("cut %d bytes into the second block header: err = %v, want an error", cut, err)
		}
	}
}

// NGWriter emits a minimal single-interface pcapng file (section header +
// Ethernet interface description, then one enhanced packet block per
// packet), with microsecond timestamps.
type NGWriter struct {
	w io.Writer
}

// NewNGWriter writes the section and interface headers.
func NewNGWriter(w io.Writer, snaplen uint32) (*NGWriter, error) {
	if snaplen == 0 {
		snaplen = 262144
	}
	le := binary.LittleEndian
	shb := make([]byte, 28)
	le.PutUint32(shb[0:], blockSectionHeader)
	le.PutUint32(shb[4:], 28)
	le.PutUint32(shb[8:], byteOrderMagic)
	le.PutUint16(shb[12:], 1) // major
	le.PutUint16(shb[14:], 0) // minor
	for i := 16; i < 24; i++ {
		shb[i] = 0xff // unknown section length
	}
	le.PutUint32(shb[24:], 28)
	idb := make([]byte, 20)
	le.PutUint32(idb[0:], blockInterfaceDesc)
	le.PutUint32(idb[4:], 20)
	le.PutUint16(idb[8:], LinkTypeEthernet)
	le.PutUint32(idb[12:], snaplen)
	le.PutUint32(idb[16:], 20)
	if _, err := w.Write(shb); err != nil {
		return nil, err
	}
	if _, err := w.Write(idb); err != nil {
		return nil, err
	}
	return &NGWriter{w: w}, nil
}

// WritePacket appends one enhanced packet block.
func (nw *NGWriter) WritePacket(ts time.Time, data []byte) error {
	le := binary.LittleEndian
	pad := (4 - len(data)%4) % 4
	total := uint32(32 + len(data) + pad)
	hdr := make([]byte, 28)
	le.PutUint32(hdr[0:], blockEnhancedPacket)
	le.PutUint32(hdr[4:], total)
	le.PutUint32(hdr[8:], 0) // interface 0
	usec := uint64(ts.UnixMicro())
	le.PutUint32(hdr[12:], uint32(usec>>32))
	le.PutUint32(hdr[16:], uint32(usec))
	le.PutUint32(hdr[20:], uint32(len(data)))
	le.PutUint32(hdr[24:], uint32(len(data)))
	if _, err := nw.w.Write(hdr); err != nil {
		return err
	}
	if _, err := nw.w.Write(data); err != nil {
		return err
	}
	if pad > 0 {
		if _, err := nw.w.Write(make([]byte, pad)); err != nil {
			return err
		}
	}
	var trailer [4]byte
	le.PutUint32(trailer[:], total)
	_, err := nw.w.Write(trailer[:])
	return err
}
