package packet

import (
	"bytes"
	"encoding/binary"
	"net/netip"
	"testing"
)

// referenceChecksum is RFC 1071 as written: sum 16-bit big-endian byte
// pairs, pad an odd last byte with zero, fold the carries, complement. It is
// the oracle for the word-at-a-time Checksum and the copy-free
// pseudoChecksum.
func referenceChecksum(b []byte) uint16 {
	var sum uint32
	for i := 0; i+1 < len(b); i += 2 {
		sum += uint32(b[i])<<8 | uint32(b[i+1])
		for sum > 0xffff {
			sum = sum&0xffff + sum>>16
		}
	}
	if len(b)%2 == 1 {
		sum += uint32(b[len(b)-1]) << 8
		for sum > 0xffff {
			sum = sum&0xffff + sum>>16
		}
	}
	return ^uint16(sum)
}

// referencePseudoChecksum copies the RFC 768 / RFC 793 (IPv4) or RFC 8200
// §8.1 (IPv6) pseudo-header and the segment into one buffer and checksums it.
func referencePseudoChecksum(src, dst netip.Addr, proto uint8, seg []byte) uint16 {
	var b []byte
	if src.Is4() && dst.Is4() {
		s, d := src.As4(), dst.As4()
		b = append(append(b, s[:]...), d[:]...)
		b = append(b, 0, proto)
		b = binary.BigEndian.AppendUint16(b, uint16(len(seg)))
	} else {
		s, d := src.As16(), dst.As16()
		b = append(append(b, s[:]...), d[:]...)
		b = binary.BigEndian.AppendUint32(b, uint32(len(seg)))
		b = append(b, 0, 0, 0, proto)
	}
	return referenceChecksum(append(b, seg...))
}

// FuzzChecksumMatchesReference checks Checksum and pseudoChecksum against
// the byte-pair reference on segments of any length up to 64 KiB: data is
// repeated out to n bytes, and the addresses are drawn from addrs as IPv4 or
// IPv6.
func FuzzChecksumMatchesReference(f *testing.F) {
	f.Add([]byte{}, uint16(0), uint64(0), false, uint8(ProtoTCP))
	f.Add([]byte{0xab}, uint16(1), uint64(1), false, uint8(ProtoUDP))
	f.Add([]byte{0xff}, uint16(65535), ^uint64(0), true, uint8(ProtoUDP))
	f.Add([]byte{0xff, 0xff, 0xff, 0xfe}, uint16(4095), uint64(0x0123456789abcdef), false, uint8(ProtoTCP))
	f.Add([]byte{0x00}, uint16(1500), uint64(7), true, uint8(ProtoTCP))
	f.Add([]byte("the quick brown fox"), uint16(37), uint64(0xc0a80102cb00710a), false, uint8(ProtoTCP))
	f.Fuzz(func(t *testing.T, data []byte, n uint16, addrs uint64, v6 bool, proto uint8) {
		if len(data) == 0 {
			data = []byte{0}
		}
		seg := bytes.Repeat(data, int(n)/len(data)+1)[:n]
		if got, want := Checksum(seg), referenceChecksum(seg); got != want {
			t.Fatalf("Checksum of %d bytes = %#04x, reference %#04x", n, got, want)
		}
		if got, want := Checksum(data), referenceChecksum(data); got != want {
			t.Fatalf("Checksum of %x = %#04x, reference %#04x", data, got, want)
		}
		var a, b [16]byte
		binary.BigEndian.PutUint64(a[:], addrs)
		binary.BigEndian.PutUint64(a[8:], addrs*0x9e3779b97f4a7c15)
		binary.BigEndian.PutUint64(b[:], ^addrs)
		binary.BigEndian.PutUint64(b[8:], addrs^0xdeadbeefcafef00d)
		src, dst := netip.AddrFrom4([4]byte(a[:4])), netip.AddrFrom4([4]byte(b[:4]))
		if v6 {
			src, dst = netip.AddrFrom16(a), netip.AddrFrom16(b)
		}
		if got, want := pseudoChecksum(src, dst, proto, seg), referencePseudoChecksum(src, dst, proto, seg); got != want {
			t.Fatalf("pseudoChecksum(%v, %v, %d) of %d bytes = %#04x, reference %#04x", src, dst, proto, n, got, want)
		}
	})
}

// TestSegmentAppendAllocFree pins the encoders' copy-free checksum: TCP and
// UDP Append into a dst with room allocate nothing, for IPv4 and IPv6.
func TestSegmentAppendAllocFree(t *testing.T) {
	tcp := &TCP{SrcPort: 51000, DstPort: 443, Seq: 1000, Flags: FlagSYN, Window: 65535,
		Options: []TCPOption{{Kind: OptMSS, Data: []byte{0x05, 0xb4}}, {Kind: OptNOP},
			{Kind: OptWindowScale, Data: []byte{8}}, {Kind: OptSACKPermitted}}}
	udp := &UDP{SrcPort: 55000, DstPort: 443}
	payload := bytes.Repeat([]byte{0x5a}, 1201)
	dst := make([]byte, 0, 2048)
	for _, addrs := range [][2]netip.Addr{{srcIP, dstIP}, {src6, dst6}} {
		allocs := testing.AllocsPerRun(100, func() {
			dst = tcp.Append(dst[:0], payload, addrs[0], addrs[1])
			dst = udp.Append(dst[:0], payload, addrs[0], addrs[1])
		})
		if allocs != 0 {
			t.Errorf("%v: TCP and UDP Append allocate %v times per run, want 0", addrs[0], allocs)
		}
	}
}
