// Package packet decodes and serializes the link, network and transport
// layers needed to analyze video-streaming handshakes: Ethernet, IPv4, IPv6,
// TCP (with options) and UDP.
//
// The decoding style follows gopacket's DecodingLayerParser idiom: a Parser
// decodes into preallocated layer structs with no per-packet allocation, so a
// single Parser can sustain line-rate parsing on one goroutine. Parsers are
// not safe for concurrent use; create one per goroutine.
//
// Summary is the decode for every packet of a tap: the 5-tuple, its canonical
// order and the payload bounds read at fixed header offsets, no layer struct
// filled. It accepts exactly the frames Parser.Parse and Parsed.Flow find a
// flow in, so the full decode can be kept for the frames that need it.
package packet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"net/netip"
)

// Errors returned by the decoders.
var (
	ErrTruncated   = errors.New("packet: truncated")
	ErrUnsupported = errors.New("packet: unsupported layer")
)

// EtherType values used by this package.
const (
	EtherTypeIPv4 uint16 = 0x0800
	EtherTypeIPv6 uint16 = 0x86dd
)

// IP protocol numbers.
const (
	ProtoTCP uint8 = 6
	ProtoUDP uint8 = 17
)

// Ethernet is a decoded Ethernet II header.
type Ethernet struct {
	Src, Dst  [6]byte
	EtherType uint16
}

// Decode parses an Ethernet II frame and returns its payload.
func (e *Ethernet) Decode(b []byte) (payload []byte, err error) {
	if len(b) < 14 {
		return nil, ErrTruncated
	}
	copy(e.Dst[:], b[0:6])
	copy(e.Src[:], b[6:12])
	e.EtherType = binary.BigEndian.Uint16(b[12:14])
	return b[14:], nil
}

// Append serializes the header followed by payload onto dst.
func (e *Ethernet) Append(dst, payload []byte) []byte {
	dst = append(dst, e.Dst[:]...)
	dst = append(dst, e.Src[:]...)
	dst = binary.BigEndian.AppendUint16(dst, e.EtherType)
	return append(dst, payload...)
}

// IPv4 is a decoded IPv4 header. Options are preserved verbatim.
type IPv4 struct {
	TOS      uint8
	TotalLen uint16
	ID       uint16
	Flags    uint8 // upper 3 bits of the fragment field
	FragOff  uint16
	TTL      uint8
	Protocol uint8
	Checksum uint16
	Src, Dst netip.Addr
	Options  []byte
}

// Decode parses an IPv4 header and returns its payload (respecting TotalLen).
func (ip *IPv4) Decode(b []byte) (payload []byte, err error) {
	if len(b) < 20 {
		return nil, ErrTruncated
	}
	if v := b[0] >> 4; v != 4 {
		return nil, fmt.Errorf("packet: IPv4 version %d: %w", v, ErrUnsupported) // cold malformed-header error path
	}
	ihl := int(b[0]&0x0f) * 4
	if ihl < 20 || len(b) < ihl {
		return nil, ErrTruncated
	}
	ip.TOS = b[1]
	ip.TotalLen = binary.BigEndian.Uint16(b[2:4])
	ip.ID = binary.BigEndian.Uint16(b[4:6])
	frag := binary.BigEndian.Uint16(b[6:8])
	ip.Flags = uint8(frag >> 13)
	ip.FragOff = frag & 0x1fff
	ip.TTL = b[8]
	ip.Protocol = b[9]
	ip.Checksum = binary.BigEndian.Uint16(b[10:12])
	ip.Src = netip.AddrFrom4([4]byte(b[12:16]))
	ip.Dst = netip.AddrFrom4([4]byte(b[16:20]))
	ip.Options = b[20:ihl]
	end := int(ip.TotalLen)
	if end < ihl || end > len(b) {
		end = len(b)
	}
	return b[ihl:end], nil
}

// AppendHeader serializes the header alone, with a correct checksum and a
// TotalLen for an n-byte payload, onto dst.
func (ip *IPv4) AppendHeader(dst []byte, n int) []byte {
	ihl := 20 + len(ip.Options)
	if ihl%4 != 0 {
		panic("packet: IPv4 options not 32-bit aligned")
	}
	start := len(dst)
	dst = append(dst, byte(4<<4|ihl/4), ip.TOS)
	dst = binary.BigEndian.AppendUint16(dst, uint16(ihl+n))
	dst = binary.BigEndian.AppendUint16(dst, ip.ID)
	dst = binary.BigEndian.AppendUint16(dst, uint16(ip.Flags)<<13|ip.FragOff&0x1fff)
	dst = append(dst, ip.TTL, ip.Protocol, 0, 0)
	src, dstAddr := ip.Src.As4(), ip.Dst.As4()
	dst = append(dst, src[:]...)
	dst = append(dst, dstAddr[:]...)
	dst = append(dst, ip.Options...)
	ck := Checksum(dst[start : start+ihl])
	binary.BigEndian.PutUint16(dst[start+10:], ck)
	return dst
}

// Append serializes the header (with a correct checksum and TotalLen) followed
// by payload onto dst.
func (ip *IPv4) Append(dst, payload []byte) []byte {
	return append(ip.AppendHeader(dst, len(payload)), payload...)
}

// IPv6 is a decoded IPv6 header. Extension headers are not walked; Protocol
// is the NextHeader value.
type IPv6 struct {
	TrafficClass uint8
	FlowLabel    uint32
	PayloadLen   uint16
	Protocol     uint8 // NextHeader
	HopLimit     uint8
	Src, Dst     netip.Addr
}

// Decode parses an IPv6 fixed header and returns its payload.
func (ip *IPv6) Decode(b []byte) (payload []byte, err error) {
	if len(b) < 40 {
		return nil, ErrTruncated
	}
	if v := b[0] >> 4; v != 6 {
		return nil, fmt.Errorf("packet: IPv6 version %d: %w", v, ErrUnsupported) // cold malformed-header error path
	}
	ip.TrafficClass = b[0]<<4 | b[1]>>4
	ip.FlowLabel = binary.BigEndian.Uint32(b[0:4]) & 0xfffff
	ip.PayloadLen = binary.BigEndian.Uint16(b[4:6])
	ip.Protocol = b[6]
	ip.HopLimit = b[7]
	ip.Src = netip.AddrFrom16([16]byte(b[8:24]))
	ip.Dst = netip.AddrFrom16([16]byte(b[24:40]))
	end := 40 + int(ip.PayloadLen)
	if end > len(b) {
		end = len(b)
	}
	return b[40:end], nil
}

// Append serializes the header followed by payload onto dst.
func (ip *IPv6) Append(dst, payload []byte) []byte {
	first := binary.BigEndian.AppendUint32(nil,
		6<<28|uint32(ip.TrafficClass)<<20|ip.FlowLabel&0xfffff)
	dst = append(dst, first...)
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(payload)))
	dst = append(dst, ip.Protocol, ip.HopLimit)
	src, dstAddr := ip.Src.As16(), ip.Dst.As16()
	dst = append(dst, src[:]...)
	dst = append(dst, dstAddr[:]...)
	return append(dst, payload...)
}

// TCP flag bits.
const (
	FlagFIN uint8 = 1 << 0
	FlagSYN uint8 = 1 << 1
	FlagRST uint8 = 1 << 2
	FlagPSH uint8 = 1 << 3
	FlagACK uint8 = 1 << 4
	FlagURG uint8 = 1 << 5
	FlagECE uint8 = 1 << 6
	FlagCWR uint8 = 1 << 7
)

// TCPOption kinds used in connection-establishment fingerprinting.
const (
	OptEnd           uint8 = 0
	OptNOP           uint8 = 1
	OptMSS           uint8 = 2
	OptWindowScale   uint8 = 3
	OptSACKPermitted uint8 = 4
	OptTimestamps    uint8 = 8
)

// TCPOption is a single decoded TCP option.
type TCPOption struct {
	Kind uint8
	Data []byte // option payload, excluding kind and length octets
}

// TCP is a decoded TCP header.
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
	Checksum         uint16
	Urgent           uint16
	Options          []TCPOption

	optStorage [8]TCPOption // backing array so decoding stays allocation-free
}

// Decode parses a TCP header and returns its payload.
func (t *TCP) Decode(b []byte) (payload []byte, err error) {
	if len(b) < 20 {
		return nil, ErrTruncated
	}
	dataOff := int(b[12]>>4) * 4
	if dataOff < 20 || len(b) < dataOff {
		return nil, ErrTruncated
	}
	t.SrcPort = binary.BigEndian.Uint16(b[0:2])
	t.DstPort = binary.BigEndian.Uint16(b[2:4])
	t.Seq = binary.BigEndian.Uint32(b[4:8])
	t.Ack = binary.BigEndian.Uint32(b[8:12])
	t.Flags = b[13]
	t.Window = binary.BigEndian.Uint16(b[14:16])
	t.Checksum = binary.BigEndian.Uint16(b[16:18])
	t.Urgent = binary.BigEndian.Uint16(b[18:20])
	t.Options = t.optStorage[:0]
	opts := b[20:dataOff]
	for len(opts) > 0 {
		kind := opts[0]
		switch kind {
		case OptEnd:
			opts = nil
		case OptNOP:
			t.Options = append(t.Options, TCPOption{Kind: OptNOP})
			opts = opts[1:]
		default:
			if len(opts) < 2 {
				return nil, ErrTruncated
			}
			olen := int(opts[1])
			if olen < 2 || olen > len(opts) {
				return nil, ErrTruncated
			}
			t.Options = append(t.Options, TCPOption{Kind: kind, Data: opts[2:olen]})
			opts = opts[olen:]
		}
	}
	return b[dataOff:], nil
}

// Option returns the first option with the given kind, or nil.
func (t *TCP) Option(kind uint8) *TCPOption {
	for i := range t.Options {
		if t.Options[i].Kind == kind {
			return &t.Options[i]
		}
	}
	return nil
}

// MSS returns the maximum segment size option value, or 0 if absent.
func (t *TCP) MSS() uint16 {
	if o := t.Option(OptMSS); o != nil && len(o.Data) == 2 {
		return binary.BigEndian.Uint16(o.Data)
	}
	return 0
}

// WindowScale returns the window scale shift, or -1 if absent.
func (t *TCP) WindowScale() int {
	if o := t.Option(OptWindowScale); o != nil && len(o.Data) == 1 {
		return int(o.Data[0])
	}
	return -1
}

// SACKPermitted reports whether the SACK-permitted option is present.
func (t *TCP) SACKPermitted() bool { return t.Option(OptSACKPermitted) != nil }

// Append serializes the header followed by payload onto dst. The checksum is
// computed over the IPv4 pseudo-header formed from src and dst addresses; for
// IPv6 use AppendWithPseudo.
func (t *TCP) Append(dst, payload []byte, src, dstAddr netip.Addr) []byte {
	optLen := 0
	for _, o := range t.Options {
		if o.Kind == OptNOP || o.Kind == OptEnd {
			optLen++
		} else {
			optLen += 2 + len(o.Data)
		}
	}
	pad := (4 - optLen%4) % 4
	dataOff := 20 + optLen + pad
	start := len(dst)
	dst = binary.BigEndian.AppendUint16(dst, t.SrcPort)
	dst = binary.BigEndian.AppendUint16(dst, t.DstPort)
	dst = binary.BigEndian.AppendUint32(dst, t.Seq)
	dst = binary.BigEndian.AppendUint32(dst, t.Ack)
	dst = append(dst, byte(dataOff/4)<<4, t.Flags)
	dst = binary.BigEndian.AppendUint16(dst, t.Window)
	dst = append(dst, 0, 0) // checksum placeholder
	dst = binary.BigEndian.AppendUint16(dst, t.Urgent)
	for _, o := range t.Options {
		if o.Kind == OptNOP || o.Kind == OptEnd {
			dst = append(dst, o.Kind)
			continue
		}
		dst = append(dst, o.Kind, byte(2+len(o.Data)))
		dst = append(dst, o.Data...)
	}
	for i := 0; i < pad; i++ {
		dst = append(dst, OptEnd)
	}
	dst = append(dst, payload...)
	seg := dst[start:]
	ck := pseudoChecksum(src, dstAddr, ProtoTCP, seg)
	binary.BigEndian.PutUint16(dst[start+16:], ck)
	return dst
}

// UDP is a decoded UDP header.
type UDP struct {
	SrcPort, DstPort uint16
	Length           uint16
	Checksum         uint16
}

// Decode parses a UDP header and returns its payload (respecting Length).
func (u *UDP) Decode(b []byte) (payload []byte, err error) {
	if len(b) < 8 {
		return nil, ErrTruncated
	}
	u.SrcPort = binary.BigEndian.Uint16(b[0:2])
	u.DstPort = binary.BigEndian.Uint16(b[2:4])
	u.Length = binary.BigEndian.Uint16(b[4:6])
	u.Checksum = binary.BigEndian.Uint16(b[6:8])
	end := int(u.Length)
	if end < 8 || end > len(b) {
		end = len(b)
	}
	return b[8:end], nil
}

// Append serializes the header followed by payload onto dst. The checksum is
// computed over the pseudo-header formed from src and dst addresses.
func (u *UDP) Append(dst, payload []byte, src, dstAddr netip.Addr) []byte {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0)
	dst = append(dst, payload...)
	u.Put(dst[start:], src, dstAddr)
	return dst
}

// Put writes the header into seg[:8] for the payload already in seg[8:],
// computing the checksum over the pseudo-header formed from src and dst
// addresses. It lets a caller build the payload in place and frame it
// without copying.
func (u *UDP) Put(seg []byte, src, dstAddr netip.Addr) {
	binary.BigEndian.PutUint16(seg[0:], u.SrcPort)
	binary.BigEndian.PutUint16(seg[2:], u.DstPort)
	binary.BigEndian.PutUint16(seg[4:], uint16(len(seg)))
	binary.BigEndian.PutUint16(seg[6:], 0)
	ck := pseudoChecksum(src, dstAddr, ProtoUDP, seg)
	if ck == 0 {
		ck = 0xffff
	}
	binary.BigEndian.PutUint16(seg[6:], ck)
}

// Checksum computes the RFC 1071 Internet checksum of b. It equals the
// byte-pair sum RFC 1071 describes (FuzzChecksumMatchesReference).
func Checksum(b []byte) uint16 {
	return ^fold(sum(0, b))
}

// sum adds b, read as big-endian 16-bit words from an even offset, to the
// one's-complement accumulator acc. It adds 64-bit words, carrying each
// carry into the next add and the last one around, and leaves the folding to
// fold, as RFC 1071 §2 allows: the result is that of summing 16-bit words.
func sum(acc uint64, b []byte) uint64 {
	var c uint64
	for len(b) >= 32 {
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(b), c)
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(b[8:]), c)
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(b[16:]), c)
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(b[24:]), c)
		b = b[32:]
	}
	for len(b) >= 8 {
		acc, c = bits.Add64(acc, binary.BigEndian.Uint64(b), c)
		b = b[8:]
	}
	var tail uint64
	if len(b) >= 4 {
		tail = uint64(binary.BigEndian.Uint32(b))
		b = b[4:]
	}
	if len(b) >= 2 {
		tail += uint64(binary.BigEndian.Uint16(b))
		b = b[2:]
	}
	if len(b) == 1 {
		tail += uint64(b[0]) << 8
	}
	acc, c = bits.Add64(acc, tail, c)
	// tail < 2^33, so a carry out leaves acc below 2^33: adding it back
	// cannot carry again.
	return acc + c
}

// fold reduces a one's-complement accumulator to 16 bits.
func fold(acc uint64) uint16 {
	acc = acc>>32 + acc&0xffffffff
	acc = acc>>32 + acc&0xffffffff
	acc = acc>>16 + acc&0xffff
	acc = acc>>16 + acc&0xffff
	return uint16(acc)
}

// pseudoChecksum is the TCP/UDP checksum of segment under the IPv4 or IPv6
// pseudo-header for src, dst and proto. The pseudo-header is summed from a
// stack array and the segment in place, so nothing is copied, and TCP and
// UDP Append allocate nothing into a dst with room
// (TestSegmentAppendAllocFree).
func pseudoChecksum(src, dst netip.Addr, proto uint8, segment []byte) uint16 {
	var acc uint64
	if src.Is4() && dst.Is4() {
		var pseudo [12]byte
		s, d := src.As4(), dst.As4()
		copy(pseudo[0:], s[:])
		copy(pseudo[4:], d[:])
		pseudo[9] = proto
		binary.BigEndian.PutUint16(pseudo[10:], uint16(len(segment)))
		acc = sum(0, pseudo[:])
	} else {
		var pseudo [40]byte
		s, d := src.As16(), dst.As16()
		copy(pseudo[0:], s[:])
		copy(pseudo[16:], d[:])
		binary.BigEndian.PutUint32(pseudo[32:], uint32(len(segment)))
		pseudo[39] = proto
		acc = sum(0, pseudo[:])
	}
	return ^fold(sum(acc, segment))
}
