// Package pcap reads and writes libpcap capture files, the classic
// tcpdump format (Reader, Writer) and pcapng (NGReader). Both byte
// orders and both microsecond and nanosecond timestamp variants are
// supported on read; writes use little-endian microsecond files, the most
// widely compatible variant.
package pcap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"
)

// Magic numbers identifying libpcap files.
const (
	magicMicros = 0xa1b2c3d4
	magicNanos  = 0xa1b23c4d
)

// LinkTypeEthernet is the DLT value for Ethernet frames.
const LinkTypeEthernet = 1

// ErrBadMagic is returned when the file header is not a libpcap header.
var ErrBadMagic = errors.New("pcap: bad magic number")

// Packet is one captured record.
type Packet struct {
	Timestamp time.Time
	Data      []byte // captured bytes
	OrigLen   int    // original length on the wire (>= len(Data))
}

// Writer emits a libpcap file. Create with NewWriter, then call WritePacket
// for each frame.
type Writer struct {
	w       io.Writer
	snaplen uint32
}

// NewWriter writes a file header with the given snap length (0 means 262144)
// and Ethernet link type, returning a Writer for the records.
func NewWriter(w io.Writer, snaplen uint32) (*Writer, error) {
	if snaplen == 0 {
		snaplen = 262144
	}
	var hdr [24]byte
	le := binary.LittleEndian
	le.PutUint32(hdr[0:], magicMicros)
	le.PutUint16(hdr[4:], 2) // version major
	le.PutUint16(hdr[6:], 4) // version minor
	le.PutUint32(hdr[16:], snaplen)
	le.PutUint32(hdr[20:], LinkTypeEthernet)
	if _, err := w.Write(hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: writing header: %w", err)
	}
	return &Writer{w: w, snaplen: snaplen}, nil
}

// WritePacket appends one record. Data longer than the snap length is
// truncated, with OrigLen preserved in the record header.
func (pw *Writer) WritePacket(ts time.Time, data []byte) error {
	capLen := len(data)
	if uint32(capLen) > pw.snaplen {
		capLen = int(pw.snaplen)
	}
	var hdr [16]byte
	le := binary.LittleEndian
	le.PutUint32(hdr[0:], uint32(ts.Unix()))
	le.PutUint32(hdr[4:], uint32(ts.Nanosecond()/1000))
	le.PutUint32(hdr[8:], uint32(capLen))
	le.PutUint32(hdr[12:], uint32(len(data)))
	if _, err := pw.w.Write(hdr[:]); err != nil {
		return fmt.Errorf("pcap: writing record header: %w", err)
	}
	if _, err := pw.w.Write(data[:capLen]); err != nil {
		return fmt.Errorf("pcap: writing record data: %w", err)
	}
	return nil
}

// maxRecordLen is the longest record either reader will buffer: the capture
// length of a libpcap record and the whole of a pcapng block that holds a
// packet or an interface description. It is four times libpcap's own largest
// snap length, and what one hostile length field can make Next allocate.
const maxRecordLen = 1 << 20

// Reader iterates over the records of a libpcap file.
type Reader struct {
	r       io.Reader
	order   binary.ByteOrder
	nanos   bool
	snaplen uint32
	hdr     [16]byte // record header scratch, a field so it does not escape per call
}

// NewReader parses the file header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	var hdr [24]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: reading header: %w", err)
	}
	pr := &Reader{r: r}
	le, be := binary.LittleEndian, binary.BigEndian
	switch {
	case le.Uint32(hdr[0:]) == magicMicros:
		pr.order = le
	case be.Uint32(hdr[0:]) == magicMicros:
		pr.order = be
	case le.Uint32(hdr[0:]) == magicNanos:
		pr.order, pr.nanos = le, true
	case be.Uint32(hdr[0:]) == magicNanos:
		pr.order, pr.nanos = be, true
	default:
		return nil, ErrBadMagic
	}
	pr.snaplen = pr.order.Uint32(hdr[16:])
	return pr, nil
}

// Next returns the next record, or io.EOF at the end of the file. The
// returned data is freshly allocated, exactly its capture length, and safe
// to retain.
func (pr *Reader) Next() (Packet, error) {
	hdr := pr.hdr[:]
	if _, err := io.ReadFull(pr.r, hdr); err != nil {
		if errors.Is(err, io.EOF) {
			return Packet{}, io.EOF
		}
		return Packet{}, fmt.Errorf("pcap: reading record header: %w", err)
	}
	sec := pr.order.Uint32(hdr[0:])
	frac := pr.order.Uint32(hdr[4:])
	capLen := pr.order.Uint32(hdr[8:])
	origLen := pr.order.Uint32(hdr[12:])
	// Writers that mislabel the snap length are tolerated by 64 KiB; the sum
	// is taken in 64 bits, where a snap length near 2^32 cannot wrap it.
	if uint64(capLen) > min(uint64(pr.snaplen)+65536, maxRecordLen) {
		return Packet{}, fmt.Errorf("pcap: record capture length %d exceeds sanity bound", capLen)
	}
	data := make([]byte, capLen)
	if _, err := io.ReadFull(pr.r, data); err != nil {
		return Packet{}, fmt.Errorf("pcap: reading record data: %w", err)
	}
	ns := int64(frac)
	if !pr.nanos {
		ns *= 1000
	}
	return Packet{
		Timestamp: time.Unix(int64(sec), ns).UTC(),
		Data:      data,
		OrigLen:   int(origLen),
	}, nil
}
