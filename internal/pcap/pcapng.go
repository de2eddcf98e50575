package pcap

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"time"
)

// pcapng block types (the subset needed to read Wireshark captures).
const (
	blockSectionHeader  = 0x0a0d0d0a
	blockInterfaceDesc  = 0x00000001
	blockEnhancedPacket = 0x00000006
	blockSimplePacket   = 0x00000003
	byteOrderMagic      = 0x1a2b3c4d
	optEndOfOpt         = 0
	optIfTsResol        = 9
)

// ErrNotPcapNG is returned when the stream does not start with a pcapng
// section header.
var ErrNotPcapNG = errors.New("pcap: not a pcapng file")

// NGReader iterates over the packets of a pcapng (next-generation) capture,
// the default format written by modern Wireshark. Enhanced and simple packet
// blocks are returned; all other block types are skipped. Multiple sections
// and per-interface timestamp resolutions are handled.
type NGReader struct {
	r     io.Reader
	order binary.ByteOrder
	// per-interface timestamp denominator (ticks per second)
	ifaceTicks []uint64
	hdr        [12]byte // block header scratch, a field so it does not escape per call
	body       []byte   // block body and trailer scratch, reused from block to block
}

// NewNGReader parses the section header and returns an NGReader.
func NewNGReader(r io.Reader) (*NGReader, error) {
	ng := &NGReader{r: r}
	if _, err := io.ReadFull(r, ng.hdr[:]); err != nil {
		return nil, fmt.Errorf("pcap: reading pcapng header: %w", err)
	}
	if binary.LittleEndian.Uint32(ng.hdr[0:]) != blockSectionHeader {
		return nil, ErrNotPcapNG
	}
	if err := ng.startSection(); err != nil {
		return nil, err
	}
	return ng, nil
}

// startSection reads the byte order from the section header block whose
// first 12 bytes are in ng.hdr and skips the rest of the block: version,
// section length and options are not needed. A new section forgets the
// interfaces of the last one.
func (ng *NGReader) startSection() error {
	switch {
	case binary.LittleEndian.Uint32(ng.hdr[8:]) == byteOrderMagic:
		ng.order = binary.LittleEndian
	case binary.BigEndian.Uint32(ng.hdr[8:]) == byteOrderMagic:
		ng.order = binary.BigEndian
	default:
		return ErrNotPcapNG
	}
	total := ng.order.Uint32(ng.hdr[4:])
	if total < 28 || total%4 != 0 {
		return fmt.Errorf("pcap: bad section header length %d", total)
	}
	if err := ng.skip(total - 12); err != nil {
		return fmt.Errorf("pcap: section header body: %w", err)
	}
	ng.ifaceTicks = ng.ifaceTicks[:0]
	return nil
}

// skip discards the next n bytes of the block being read without buffering
// them, so a block's claimed length costs no memory. Input that ends first
// is io.ErrUnexpectedEOF: a block cut short is damage, not the end of the
// capture.
func (ng *NGReader) skip(n uint32) error {
	_, err := io.CopyN(io.Discard, ng.r, int64(n))
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return err
}

// Next returns the next captured packet or io.EOF; a file that ends part way
// through a block is an error. The returned data is, like Reader.Next's,
// freshly allocated, exactly its capture length, and safe to retain.
func (ng *NGReader) Next() (Packet, error) {
	for {
		hdr := ng.hdr[:8]
		if _, err := io.ReadFull(ng.r, hdr); err != nil {
			if errors.Is(err, io.EOF) {
				return Packet{}, io.EOF
			}
			return Packet{}, fmt.Errorf("pcap: reading block header: %w", err)
		}
		blockType := ng.order.Uint32(hdr[0:])
		if blockType == blockSectionHeader {
			// A new section: its byte order is in the next four bytes.
			if _, err := io.ReadFull(ng.r, ng.hdr[8:]); err != nil {
				return Packet{}, fmt.Errorf("pcap: reading pcapng header: %w", err)
			}
			if err := ng.startSection(); err != nil {
				return Packet{}, err
			}
			continue
		}
		total := ng.order.Uint32(hdr[4:])
		if total < 12 || total%4 != 0 {
			return Packet{}, fmt.Errorf("pcap: bad block length %d", total)
		}
		n := total - 12 // the body, between header and trailing length
		var body []byte
		trailer := hdr[:4]
		switch blockType {
		case blockInterfaceDesc, blockEnhancedPacket, blockSimplePacket:
			if total > maxRecordLen {
				return Packet{}, fmt.Errorf("pcap: block length %d exceeds sanity bound", total)
			}
			// Body and trailing length in one read into the scratch; a
			// packet's bytes are copied out of it.
			if cap(ng.body) < int(n)+4 {
				ng.body = make([]byte, n+4)
			}
			buf := ng.body[:n+4]
			if _, err := io.ReadFull(ng.r, buf); err != nil {
				return Packet{}, fmt.Errorf("pcap: block body: %w", err)
			}
			body, trailer = buf[:n], buf[n:]
		default:
			// Unknown blocks (name resolution, statistics, ...) are skipped
			// unread.
			if err := ng.skip(n); err != nil {
				return Packet{}, fmt.Errorf("pcap: block body: %w", err)
			}
			if _, err := io.ReadFull(ng.r, trailer); err != nil {
				return Packet{}, fmt.Errorf("pcap: block trailer: %w", err)
			}
		}
		if ng.order.Uint32(trailer) != total {
			return Packet{}, fmt.Errorf("pcap: block length mismatch")
		}

		switch blockType {
		case blockInterfaceDesc:
			ng.handleInterface(body)
		case blockEnhancedPacket:
			return ng.handleEnhanced(body)
		case blockSimplePacket:
			if len(body) < 4 {
				return Packet{}, fmt.Errorf("pcap: short simple packet block")
			}
			origLen := ng.order.Uint32(body[0:])
			capLen := len(body) - 4
			if uint32(capLen) > origLen {
				capLen = int(origLen)
			}
			return Packet{Data: append([]byte{}, body[4:4+capLen]...), OrigLen: int(origLen)}, nil
		}
	}
}

func (ng *NGReader) handleInterface(body []byte) {
	ticks := uint64(1_000_000) // default microsecond resolution
	if len(body) >= 8 {
		// options start at offset 8 (linktype 2 + reserved 2 + snaplen 4)
		opts := body[8:]
		for len(opts) >= 4 {
			code := ng.order.Uint16(opts[0:])
			olen := int(ng.order.Uint16(opts[2:]))
			if 4+olen > len(opts) {
				break
			}
			val := opts[4 : 4+olen]
			if code == optEndOfOpt {
				break
			}
			// A resolution finer than 64 bits of ticks per second can count
			// (2^64 and up, 10^20 and up) would wrap ticks, to zero for a
			// power of two; it is ignored and the default stands.
			if code == optIfTsResol && olen >= 1 {
				r := val[0]
				if r&0x80 != 0 { // power of two
					if r&0x7f < 64 {
						ticks = 1 << (r & 0x7f)
					}
				} else if r <= 19 {
					ticks = 1
					for i := byte(0); i < r; i++ {
						ticks *= 10
					}
				}
			}
			pad := (4 - olen%4) % 4
			opts = opts[4+olen+pad:]
		}
	}
	ng.ifaceTicks = append(ng.ifaceTicks, ticks)
}

// handleEnhanced decodes an enhanced packet block's body, copying the packet
// bytes out of it.
func (ng *NGReader) handleEnhanced(body []byte) (Packet, error) {
	if len(body) < 20 {
		return Packet{}, fmt.Errorf("pcap: short enhanced packet block")
	}
	ifaceID := ng.order.Uint32(body[0:])
	tsHigh := ng.order.Uint32(body[4:])
	tsLow := ng.order.Uint32(body[8:])
	capLen := ng.order.Uint32(body[12:])
	origLen := ng.order.Uint32(body[16:])
	if capLen > uint32(len(body)-20) {
		return Packet{}, fmt.Errorf("pcap: enhanced packet capture length overflow")
	}
	ticks := uint64(1_000_000)
	if int(ifaceID) < len(ng.ifaceTicks) {
		ticks = ng.ifaceTicks[ifaceID]
	}
	raw := uint64(tsHigh)<<32 | uint64(tsLow)
	sec := raw / ticks
	frac := raw % ticks
	// frac*1e9 overflows 64 bits for resolutions past about 10^10 ticks per
	// second, so it is taken in 128; frac < ticks keeps the quotient in 64.
	hi, lo := bits.Mul64(frac, uint64(time.Second))
	ns, _ := bits.Div64(hi, lo, ticks)
	return Packet{
		Timestamp: time.Unix(int64(sec), int64(ns)).UTC(),
		Data:      append([]byte{}, body[20:20+capLen]...),
		OrigLen:   int(origLen),
	}, nil
}

// OpenReader sniffs the magic bytes and returns a unified packet iterator
// for either classic libpcap or pcapng input.
func OpenReader(r io.ReadSeeker) (interface{ Next() (Packet, error) }, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, err
	}
	if _, err := r.Seek(0, io.SeekStart); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(magic[:]) == blockSectionHeader {
		return NewNGReader(r)
	}
	return NewReader(r)
}
