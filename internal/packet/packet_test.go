package packet

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
)

var (
	srcIP = netip.MustParseAddr("192.168.1.10")
	dstIP = netip.MustParseAddr("142.250.70.78")
	src6  = netip.MustParseAddr("2001:db8::10")
	dst6  = netip.MustParseAddr("2607:f8b0::1")
)

func buildTCPSyn(t *testing.T, payload []byte) []byte {
	t.Helper()
	tcp := &TCP{
		SrcPort: 51000, DstPort: 443, Seq: 1000,
		Flags:  FlagSYN | FlagECE | FlagCWR,
		Window: 65535,
		Options: []TCPOption{
			{Kind: OptMSS, Data: []byte{0x05, 0xb4}},
			{Kind: OptNOP},
			{Kind: OptWindowScale, Data: []byte{8}},
			{Kind: OptSACKPermitted},
		},
	}
	seg := tcp.Append(nil, payload, srcIP, dstIP)
	ip := &IPv4{TTL: 64, Protocol: ProtoTCP, Src: srcIP, Dst: dstIP, ID: 7}
	pkt := ip.Append(nil, seg)
	eth := &Ethernet{EtherType: EtherTypeIPv4}
	return eth.Append(nil, pkt)
}

func TestParseTCPSynRoundTrip(t *testing.T) {
	frame := buildTCPSyn(t, nil)
	var p Parser
	var out Parsed
	if err := p.Parse(frame, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []LayerType{LayerEthernet, LayerIPv4, LayerTCP} {
		if !out.Has(want) {
			t.Fatalf("missing layer %v; decoded %v", want, out.Decoded)
		}
	}
	if out.TCP.SrcPort != 51000 || out.TCP.DstPort != 443 {
		t.Errorf("ports = %d->%d", out.TCP.SrcPort, out.TCP.DstPort)
	}
	if out.TCP.Flags&FlagSYN == 0 || out.TCP.Flags&FlagECE == 0 || out.TCP.Flags&FlagCWR == 0 {
		t.Errorf("flags = %#x", out.TCP.Flags)
	}
	if got := out.TCP.MSS(); got != 1460 {
		t.Errorf("MSS = %d, want 1460", got)
	}
	if got := out.TCP.WindowScale(); got != 8 {
		t.Errorf("WindowScale = %d, want 8", got)
	}
	if !out.TCP.SACKPermitted() {
		t.Error("SACKPermitted = false")
	}
	if out.IP4.TTL != 64 {
		t.Errorf("TTL = %d", out.IP4.TTL)
	}
	if out.IP4.Src != srcIP || out.IP4.Dst != dstIP {
		t.Errorf("addrs = %v -> %v", out.IP4.Src, out.IP4.Dst)
	}
	if len(out.Payload) != 0 {
		t.Errorf("payload = %d bytes, want 0", len(out.Payload))
	}
}

func TestParseUDPIPv6RoundTrip(t *testing.T) {
	payload := []byte("quic initial bytes")
	udp := &UDP{SrcPort: 55000, DstPort: 443}
	seg := udp.Append(nil, payload, src6, dst6)
	ip := &IPv6{HopLimit: 58, Protocol: ProtoUDP, Src: src6, Dst: dst6}
	pkt := ip.Append(nil, seg)
	eth := &Ethernet{EtherType: EtherTypeIPv6}
	frame := eth.Append(nil, pkt)

	var p Parser
	var out Parsed
	if err := p.Parse(frame, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Has(LayerIPv6) || !out.Has(LayerUDP) {
		t.Fatalf("decoded %v", out.Decoded)
	}
	if out.TTL() != 58 {
		t.Errorf("TTL = %d", out.TTL())
	}
	if !bytes.Equal(out.Payload, payload) {
		t.Errorf("payload mismatch: %q", out.Payload)
	}
	key, ok := out.Flow()
	if !ok {
		t.Fatal("Flow not ok")
	}
	if key.Proto != ProtoUDP || key.SrcPort != 55000 {
		t.Errorf("key = %v", key)
	}
}

func TestIPv4ChecksumValid(t *testing.T) {
	frame := buildTCPSyn(t, []byte("x"))
	// Recompute the IPv4 header checksum over the serialized header; the
	// Internet checksum of a header containing its own checksum must be 0.
	hdr := frame[14 : 14+20]
	if got := Checksum(hdr); got != 0 {
		t.Errorf("IPv4 header checksum residue = %#x, want 0", got)
	}
}

func TestTCPChecksumValid(t *testing.T) {
	frame := buildTCPSyn(t, []byte("hello"))
	var p Parser
	var out Parsed
	if err := p.Parse(frame, &out); err != nil {
		t.Fatal(err)
	}
	// Verify by recomputing over pseudo-header + segment.
	ipPayloadLen := int(out.IP4.TotalLen) - 20
	seg := frame[14+20 : 14+20+ipPayloadLen]
	ck := pseudoChecksum(out.IP4.Src, out.IP4.Dst, ProtoTCP, seg)
	if ck != 0 {
		t.Errorf("TCP checksum residue = %#x, want 0", ck)
	}
}

func TestDecodeTruncated(t *testing.T) {
	frame := buildTCPSyn(t, nil)
	var p Parser
	var out Parsed
	for _, n := range []int{0, 5, 13, 14, 20, 33, 34, 40, len(frame) - 1} {
		if n >= len(frame) {
			continue
		}
		err := p.Parse(frame[:n], &out)
		if n < len(frame) && err == nil && n < 14+20+36 {
			// Anything shorter than eth+ip+full tcp header must error
			// unless it happens to end on a layer boundary with no
			// transport expected.
			if out.Has(LayerTCP) {
				t.Errorf("Parse(%d bytes): decoded TCP from truncated frame", n)
			}
		}
	}
}

func TestDecodeGarbage(t *testing.T) {
	var p Parser
	var out Parsed
	// Random-ish bytes with a valid ethertype but garbage IP version.
	frame := make([]byte, 64)
	frame[12], frame[13] = 0x08, 0x00
	frame[14] = 0x00 // IP version 0
	if err := p.Parse(frame, &out); err == nil {
		t.Error("expected error for IP version 0")
	}
}

func TestUnsupportedEtherTypePassthrough(t *testing.T) {
	eth := &Ethernet{EtherType: 0x0806} // ARP
	frame := eth.Append(nil, []byte{1, 2, 3, 4})
	var p Parser
	var out Parsed
	if err := p.Parse(frame, &out); err != nil {
		t.Fatal(err)
	}
	if len(out.Decoded) != 1 || !bytes.Equal(out.Payload, []byte{1, 2, 3, 4}) {
		t.Errorf("decoded = %v payload = %v", out.Decoded, out.Payload)
	}
}

// TestPayloadOffLocatesPayload pins Parsed.PayloadOff across header shapes —
// TCP options, IPv4 options, IPv6, UDP, a non-IP frame — each with and
// without an Ethernet trailer after the datagram, where the payload is not
// the frame's tail.
func TestPayloadOffLocatesPayload(t *testing.T) {
	payload := []byte("the transport payload")
	udp6 := (&IPv6{HopLimit: 58, Protocol: ProtoUDP, Src: src6, Dst: dst6}).Append(nil,
		(&UDP{SrcPort: 55000, DstPort: 443}).Append(nil, payload, src6, dst6))
	ip4opts := (&IPv4{TTL: 64, Protocol: ProtoUDP, Src: srcIP, Dst: dstIP, Options: []byte{1, 1, 1, 1}}).Append(nil,
		(&UDP{SrcPort: 55000, DstPort: 443}).Append(nil, payload, srcIP, dstIP))
	for name, frame := range map[string][]byte{
		"tcp syn with options": buildTCPSyn(t, payload),
		"udp over ipv6":        (&Ethernet{EtherType: EtherTypeIPv6}).Append(nil, udp6),
		"ipv4 with options":    (&Ethernet{EtherType: EtherTypeIPv4}).Append(nil, ip4opts),
		"not ip":               (&Ethernet{EtherType: 0x0806}).Append(nil, payload),
	} {
		for _, trailer := range []int{0, 4} {
			frame := append(append([]byte(nil), frame...), make([]byte, trailer)...)
			var p Parser
			var out Parsed
			if err := p.Parse(frame, &out); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			want := payload
			if name == "not ip" {
				want = frame[14:] // nothing says where a non-IP payload ends
			}
			if !bytes.Equal(out.Payload, want) {
				t.Fatalf("%s, trailer %d: payload %q", name, trailer, out.Payload)
			}
			if got := frame[out.PayloadOff : out.PayloadOff+len(out.Payload)]; &got[0] != &out.Payload[0] {
				t.Errorf("%s, trailer %d: PayloadOff %d is not where Payload starts", name, trailer, out.PayloadOff)
			}
		}
	}
}

func TestFlowKeyCanonicalSymmetry(t *testing.T) {
	k := FlowKey{Src: srcIP, Dst: dstIP, SrcPort: 51000, DstPort: 443, Proto: ProtoTCP}
	if k.Canonical() != k.Reverse().Canonical() {
		t.Error("Canonical not direction-independent")
	}
	if k.Reverse().Reverse() != k {
		t.Error("Reverse not involutive")
	}
}

// TestFlowKeyStringEndpointsParse pins the rendering a /trace span's flow
// carries: each endpoint reads back through netip.ParseAddrPort — an IPv6
// address is bracketed, or its last group and the port run together — and an
// IPv4 key renders as it always has.
func TestFlowKeyStringEndpointsParse(t *testing.T) {
	for _, c := range []struct {
		key  FlowKey
		want string
	}{
		{FlowKey{Src: srcIP, Dst: dstIP, SrcPort: 51000, DstPort: 443, Proto: ProtoTCP},
			fmt.Sprintf("%s:%d->%s:%d/tcp", srcIP, 51000, dstIP, 443)},
		{FlowKey{Src: src6, Dst: dst6, SrcPort: 50000, DstPort: 443, Proto: ProtoUDP},
			"[2001:db8::10]:50000->[2607:f8b0::1]:443/udp"},
	} {
		got := c.key.String()
		if got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
		ends, _, _ := strings.Cut(got, "/")
		src, dst, _ := strings.Cut(ends, "->")
		if ap, err := netip.ParseAddrPort(src); err != nil || ap != netip.AddrPortFrom(c.key.Src, c.key.SrcPort) {
			t.Errorf("source %q reads back as %v (err %v)", src, ap, err)
		}
		if ap, err := netip.ParseAddrPort(dst); err != nil || ap != netip.AddrPortFrom(c.key.Dst, c.key.DstPort) {
			t.Errorf("destination %q reads back as %v (err %v)", dst, ap, err)
		}
	}
}

func TestChecksumProperties(t *testing.T) {
	// RFC 1071: the checksum of data with its checksum appended is zero.
	f := func(data []byte) bool {
		if len(data)%2 != 0 {
			data = append(data, 0)
		}
		ck := Checksum(data)
		withCk := append(append([]byte{}, data...), byte(ck>>8), byte(ck))
		return Checksum(withCk) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTCPOptionsPaddingAlignment(t *testing.T) {
	// Odd-length options must be padded so the data offset is a multiple of 4.
	tcp := &TCP{SrcPort: 1, DstPort: 2, Flags: FlagSYN,
		Options: []TCPOption{{Kind: OptWindowScale, Data: []byte{7}}}}
	seg := tcp.Append(nil, nil, srcIP, dstIP)
	if len(seg)%4 != 0 {
		t.Fatalf("segment length %d not 32-bit aligned", len(seg))
	}
	var dec TCP
	if _, err := dec.Decode(seg); err != nil {
		t.Fatal(err)
	}
	if dec.WindowScale() != 7 {
		t.Errorf("WindowScale = %d", dec.WindowScale())
	}
}

func TestTCPMalformedOptions(t *testing.T) {
	// Option with declared length running past the header must error.
	seg := make([]byte, 24)
	binary.BigEndian.PutUint16(seg[0:2], 80)
	seg[12] = 6 << 4 // data offset 24 => 4 option bytes
	seg[20] = OptMSS
	seg[21] = 40 // longer than remaining
	var dec TCP
	if _, err := dec.Decode(seg); err == nil {
		t.Error("expected error for malformed option length")
	}
	// Zero option length is also invalid.
	seg[21] = 0
	if _, err := dec.Decode(seg); err == nil {
		t.Error("expected error for zero option length")
	}
}

func TestParseAllocFree(t *testing.T) {
	frame := buildTCPSyn(t, []byte("payload"))
	var p Parser
	var out Parsed
	allocs := testing.AllocsPerRun(100, func() {
		if err := p.Parse(frame, &out); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("Parse allocates %v times per run, want 0", allocs)
	}
}

func TestSummaryAllocFree(t *testing.T) {
	udp := &UDP{SrcPort: 55000, DstPort: 443}
	ip := &IPv6{HopLimit: 58, Protocol: ProtoUDP, Src: src6, Dst: dst6}
	eth := &Ethernet{EtherType: EtherTypeIPv6}
	frames := [][]byte{
		buildTCPSyn(t, []byte("payload")),
		eth.Append(nil, ip.Append(nil, udp.Append(nil, []byte("quic"), src6, dst6))),
	}
	var sum Summary
	allocs := testing.AllocsPerRun(100, func() {
		for _, frame := range frames {
			if !sum.Decode(frame) {
				t.Fatal("no 5-tuple")
			}
		}
	})
	if allocs > 0 {
		t.Errorf("Summary.Decode allocates %v times per run, want 0", allocs)
	}
}
