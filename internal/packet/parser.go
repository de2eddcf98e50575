package packet

import (
	"fmt"
	"net/netip"
)

// LayerType identifies which layers a Parser decoded.
type LayerType uint8

// Layer types reported by Parser.Parse.
const (
	LayerEthernet LayerType = iota
	LayerIPv4
	LayerIPv6
	LayerTCP
	LayerUDP
)

// Parsed is the zero-allocation decode result of one frame. The embedded
// layer structs are only valid for the layer types listed in Decoded, and
// alias the input buffer — copy anything retained past the next Parse call.
type Parsed struct {
	Decoded []LayerType
	Eth     Ethernet
	IP4     IPv4
	IP6     IPv6
	TCP     TCP
	UDP     UDP
	Payload []byte // transport payload
	// PayloadOff is where Payload starts in the frame handed to Parse. The
	// payload need not run to the frame's end — IP and UDP length fields cut
	// off an Ethernet trailer or padding — so the offset is recorded during
	// the decode rather than derived from the lengths afterwards.
	PayloadOff int

	decodedStorage [4]LayerType
}

// Has reports whether the given layer was decoded.
func (p *Parsed) Has(t LayerType) bool {
	for _, d := range p.Decoded {
		if d == t {
			return true
		}
	}
	return false
}

// SrcAddr returns the network-layer source address.
func (p *Parsed) SrcAddr() netip.Addr {
	if p.Has(LayerIPv4) {
		return p.IP4.Src
	}
	return p.IP6.Src
}

// DstAddr returns the network-layer destination address.
func (p *Parsed) DstAddr() netip.Addr {
	if p.Has(LayerIPv6) {
		return p.IP6.Dst
	}
	return p.IP4.Dst
}

// TTL returns the IPv4 TTL or IPv6 hop limit.
func (p *Parsed) TTL() uint8 {
	if p.Has(LayerIPv4) {
		return p.IP4.TTL
	}
	return p.IP6.HopLimit
}

// IPLen returns the size of the IP packet as its header states it — IPv4
// total length, or the IPv6 fixed header plus payload length — so an Ethernet
// trailer or padding after the packet does not count.
func (p *Parsed) IPLen() int {
	if p.Has(LayerIPv4) {
		return int(p.IP4.TotalLen)
	}
	return 40 + int(p.IP6.PayloadLen)
}

// Flow returns the 5-tuple flow key of the packet, or ok=false for
// non-TCP/UDP traffic.
func (p *Parsed) Flow() (FlowKey, bool) {
	var k FlowKey
	switch {
	case p.Has(LayerTCP):
		k.Proto = ProtoTCP
		k.SrcPort, k.DstPort = p.TCP.SrcPort, p.TCP.DstPort
	case p.Has(LayerUDP):
		k.Proto = ProtoUDP
		k.SrcPort, k.DstPort = p.UDP.SrcPort, p.UDP.DstPort
	default:
		return k, false
	}
	k.Src, k.Dst = p.SrcAddr(), p.DstAddr()
	return k, true
}

// Parser decodes Ethernet frames into a reusable Parsed value. Not safe for
// concurrent use.
type Parser struct{}

// Parse decodes frame into out. Layers that cannot be decoded terminate the
// walk; Decoded records how far it got. An unsupported EtherType or IP
// protocol, or a non-first IPv4 fragment, is not an error — the payload is
// simply left at that layer. Zero-allocation on the decode path, pinned by
// TestParseAllocFree. Summary.Decode is the per-packet subset of this decode.
func (ps *Parser) Parse(frame []byte, out *Parsed) error {
	out.Decoded = out.decodedStorage[:0]
	out.Payload, out.PayloadOff = nil, 0

	rest, err := out.Eth.Decode(frame)
	if err != nil {
		return fmt.Errorf("ethernet: %w", err) // cold malformed-frame error path
	}
	out.Decoded = append(out.Decoded, LayerEthernet)
	off := 14 // Ethernet II header

	var proto uint8
	switch out.Eth.EtherType {
	case EtherTypeIPv4:
		if rest, err = out.IP4.Decode(rest); err != nil {
			return fmt.Errorf("ipv4: %w", err) // cold malformed-frame error path
		}
		out.Decoded = append(out.Decoded, LayerIPv4)
		proto = out.IP4.Protocol
		off += 20 + len(out.IP4.Options)
		if out.IP4.FragOff != 0 {
			// A non-first fragment has no transport header: its first bytes
			// are the middle of a datagram, not ports.
			out.Payload, out.PayloadOff = rest, off
			return nil
		}
	case EtherTypeIPv6:
		if rest, err = out.IP6.Decode(rest); err != nil {
			return fmt.Errorf("ipv6: %w", err) // cold malformed-frame error path
		}
		out.Decoded = append(out.Decoded, LayerIPv6)
		proto = out.IP6.Protocol
		off += 40 // fixed header; extension headers are not walked
	default:
		out.Payload, out.PayloadOff = rest, off
		return nil
	}

	switch proto {
	case ProtoTCP:
		segment := len(rest)
		if rest, err = out.TCP.Decode(rest); err != nil {
			return fmt.Errorf("tcp: %w", err) // cold malformed-frame error path
		}
		out.Decoded = append(out.Decoded, LayerTCP)
		off += segment - len(rest) // TCP.Decode strips exactly the header, options included
	case ProtoUDP:
		if rest, err = out.UDP.Decode(rest); err != nil {
			return fmt.Errorf("udp: %w", err) // cold malformed-frame error path
		}
		out.Decoded = append(out.Decoded, LayerUDP)
		off += 8
	}
	out.Payload, out.PayloadOff = rest, off
	return nil
}

// FlowKey is a transport 5-tuple. It is comparable and usable as a map key.
type FlowKey struct {
	Src, Dst         netip.Addr
	SrcPort, DstPort uint16
	Proto            uint8
}

// Reverse returns the key of the opposite direction.
func (k FlowKey) Reverse() FlowKey {
	return FlowKey{Src: k.Dst, Dst: k.Src, SrcPort: k.DstPort, DstPort: k.SrcPort, Proto: k.Proto}
}

// Canonical returns a direction-independent key (the lexicographically
// smaller endpoint first), so both directions of a flow map to one entry.
func (k FlowKey) Canonical() FlowKey {
	if k.Src.Compare(k.Dst) > 0 || (k.Src == k.Dst && k.SrcPort > k.DstPort) {
		return k.Reverse()
	}
	return k
}

// String renders "src:port->dst:port/proto", an IPv6 address in brackets.
func (k FlowKey) String() string {
	proto := "?"
	switch k.Proto {
	case ProtoTCP:
		proto = "tcp"
	case ProtoUDP:
		proto = "udp"
	}
	return fmt.Sprintf("%s->%s/%s", netip.AddrPortFrom(k.Src, k.SrcPort), netip.AddrPortFrom(k.Dst, k.DstPort), proto)
}
