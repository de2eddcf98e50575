package packet

import (
	"encoding/binary"
	"net/netip"
)

// Summary is what the per-packet path needs of a frame and nothing more: the
// 5-tuple, its orientation against the canonical key, the canonical key as
// hash input and where the transport payload lies. It is the decode a tap
// runs on every packet; Parser.Parse is the full decode, run on the few
// frames per flow whose TTL, flags and options matter.
type Summary struct {
	// Key is the 5-tuple as on the wire.
	Key FlowKey
	// Reversed reports that Key.Canonical() is Key.Reverse() rather than Key.
	Reversed bool
	// Words is the canonical key as flow-hash input: the smaller endpoint's
	// 16-byte address (IPv4 in its v4-mapped form, what netip.Addr.As16
	// gives) as two little-endian words, the larger endpoint's likewise, then
	// srcPort<<24 | dstPort<<8 | proto of the canonical key.
	Words [5]uint64
	// PayloadOff is where the transport payload starts in the frame and
	// PayloadLen its length on the wire: IP and UDP length fields cut off an
	// Ethernet trailer, so the payload need not run to the frame's end.
	PayloadOff, PayloadLen int
}

// Decode fills s from an Ethernet frame by reading the fixed header offsets,
// and reports whether the frame carries a TCP or UDP 5-tuple. It is false
// exactly where Parser.Parse fails or Parsed.Flow finds no flow — a header
// cut short, a wrong IP version, a bad IHL or data offset, a malformed TCP
// option length, a non-first IPv4 fragment, neither IP nor TCP/UDP — and
// otherwise agrees with Parse, Flow and FlowKey.Canonical on every field
// (TestSummaryMatchesParse and FuzzSummaryMatchesParse in internal/pipeline).
// s is undefined after a false return. Nothing of frame is retained, nothing
// allocated (TestSummaryAllocFree).
func (s *Summary) Decode(frame []byte) bool {
	if len(frame) < 14 {
		return false
	}
	var (
		seg   []byte // the transport segment: IP payload, trailer cut off
		off   int    // where seg starts in frame
		proto uint8
		// Each address as two hash words, and how src orders against dst
		// the way netip.Addr.Compare would say (big-endian, byte by byte).
		// Scalars, not [2]uint64 arrays: those went through the stack, and
		// reloading two 8-byte stores as one 16-byte copy stalled store
		// forwarding by an amount that moved with the caller's frame size.
		src0, src1, dst0, dst1 uint64
		after, same            bool
	)
	switch binary.BigEndian.Uint16(frame[12:14]) {
	case EtherTypeIPv4:
		ip := frame[14:]
		if len(ip) < 20 || ip[0]>>4 != 4 {
			return false
		}
		ihl := int(ip[0]&0x0f) * 4
		if ihl < 20 || len(ip) < ihl {
			return false
		}
		if binary.BigEndian.Uint16(ip[6:8])&0x1fff != 0 {
			return false // a non-first fragment has no transport header
		}
		end := int(binary.BigEndian.Uint16(ip[2:4]))
		if end < ihl || end > len(ip) {
			end = len(ip)
		}
		seg, off, proto = ip[ihl:end], 14+ihl, ip[9]
		s.Key.Src = netip.AddrFrom4([4]byte(ip[12:16]))
		s.Key.Dst = netip.AddrFrom4([4]byte(ip[16:20]))
		const mapped = 0xffff0000 // bytes 8..11 of ::ffff:a.b.c.d, little-endian
		src1 = mapped | uint64(binary.LittleEndian.Uint32(ip[12:16]))<<32
		dst1 = mapped | uint64(binary.LittleEndian.Uint32(ip[16:20]))<<32
		a, b := binary.BigEndian.Uint32(ip[12:16]), binary.BigEndian.Uint32(ip[16:20])
		after, same = a > b, a == b
	case EtherTypeIPv6:
		ip := frame[14:]
		if len(ip) < 40 || ip[0]>>4 != 6 {
			return false
		}
		end := 40 + int(binary.BigEndian.Uint16(ip[4:6]))
		if end > len(ip) {
			end = len(ip)
		}
		seg, off, proto = ip[40:end], 14+40, ip[6] // extension headers are not walked
		s.Key.Src = netip.AddrFrom16([16]byte(ip[8:24]))
		s.Key.Dst = netip.AddrFrom16([16]byte(ip[24:40]))
		src0, src1 = binary.LittleEndian.Uint64(ip[8:16]), binary.LittleEndian.Uint64(ip[16:24])
		dst0, dst1 = binary.LittleEndian.Uint64(ip[24:32]), binary.LittleEndian.Uint64(ip[32:40])
		aHi, bHi := binary.BigEndian.Uint64(ip[8:16]), binary.BigEndian.Uint64(ip[24:32])
		aLo, bLo := binary.BigEndian.Uint64(ip[16:24]), binary.BigEndian.Uint64(ip[32:40])
		after, same = aHi > bHi || (aHi == bHi && aLo > bLo), aHi == bHi && aLo == bLo
	default:
		return false
	}

	switch proto {
	case ProtoTCP:
		if len(seg) < 20 {
			return false
		}
		dataOff := int(seg[12]>>4) * 4
		if dataOff < 20 || len(seg) < dataOff {
			return false
		}
		// The option walk of TCP.Decode, kept for its verdict alone.
		for opts := seg[20:dataOff]; len(opts) > 0; {
			switch opts[0] {
			case OptEnd:
				opts = nil
			case OptNOP:
				opts = opts[1:]
			default:
				if len(opts) < 2 || opts[1] < 2 || int(opts[1]) > len(opts) {
					return false
				}
				opts = opts[opts[1]:]
			}
		}
		s.PayloadOff, s.PayloadLen = off+dataOff, len(seg)-dataOff
	case ProtoUDP:
		if len(seg) < 8 {
			return false
		}
		end := int(binary.BigEndian.Uint16(seg[4:6]))
		if end < 8 || end > len(seg) {
			end = len(seg)
		}
		s.PayloadOff, s.PayloadLen = off+8, end-8
	default:
		return false
	}
	sport, dport := binary.BigEndian.Uint16(seg[0:2]), binary.BigEndian.Uint16(seg[2:4])
	s.Key.SrcPort, s.Key.DstPort, s.Key.Proto = sport, dport, proto

	// Canonical order: the smaller address first, ports breaking a tie.
	s.Reversed = after || (same && sport > dport)
	if s.Reversed {
		src0, src1, dst0, dst1, sport, dport = dst0, dst1, src0, src1, dport, sport
	}
	s.Words[0], s.Words[1], s.Words[2], s.Words[3] = src0, src1, dst0, dst1
	s.Words[4] = uint64(sport)<<24 | uint64(dport)<<8 | uint64(proto)
	return true
}
