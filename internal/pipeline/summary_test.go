package pipeline

import (
	"encoding/binary"
	"net/netip"
	"testing"
	"time"

	"videoplat/internal/fingerprint"
	"videoplat/internal/packet"
	"videoplat/internal/tracegen"
)

// refHash is the shard hash computed the long way round, from a canonical
// key's netip addresses: the oracle for the words packet.Summary reads
// straight from the header.
func refHash(canon packet.FlowKey) uint64 {
	src, dst := canon.Src.As16(), canon.Dst.As16()
	return hashWords(&[5]uint64{
		binary.LittleEndian.Uint64(src[:8]), binary.LittleEndian.Uint64(src[8:]),
		binary.LittleEndian.Uint64(dst[:8]), binary.LittleEndian.Uint64(dst[8:]),
		uint64(canon.SrcPort)<<24 | uint64(canon.DstPort)<<8 | uint64(canon.Proto),
	})
}

// checkSummary holds packet.Summary.Decode of one frame against the full
// decode it replaced on the per-packet path: Parser.Parse, Parsed.Flow,
// FlowKey.Canonical and the hash of the canonical key.
func checkSummary(t *testing.T, name string, frame []byte) {
	t.Helper()
	var (
		parser packet.Parser
		parsed packet.Parsed
		sum    packet.Summary
	)
	key, want := packet.FlowKey{}, false
	if err := parser.Parse(frame, &parsed); err == nil {
		key, want = parsed.Flow()
	}
	if got := sum.Decode(frame); got != want {
		t.Fatalf("%s (%d bytes): Summary.Decode ok = %v, Parse and Flow say %v", name, len(frame), got, want)
	}
	if !want {
		return
	}
	canon := key.Canonical()
	if sum.Key != key || sum.Reversed != (canon != key) {
		t.Errorf("%s (%d bytes): summary key %v reversed %v, want %v reversed %v", name, len(frame), sum.Key, sum.Reversed, key, canon != key)
	}
	if sum.PayloadOff != parsed.PayloadOff || sum.PayloadLen != len(parsed.Payload) {
		t.Errorf("%s (%d bytes): summary payload at %d, %d bytes; Parse says at %d, %d bytes",
			name, len(frame), sum.PayloadOff, sum.PayloadLen, parsed.PayloadOff, len(parsed.Payload))
	}
	if got, want := hashWords(&sum.Words), refHash(canon); got != want {
		t.Errorf("%s (%d bytes): hash of the summary's words %#x, of the canonical key %#x", name, len(frame), got, want)
	}
}

type namedFrame struct {
	name string
	data []byte
}

// summaryFrames is the differential table: every frame of a render of every
// platform, provider and transport tracegen supports, and hand-built frames
// for what tracegen never renders.
func summaryFrames(tb testing.TB) []namedFrame {
	tb.Helper()
	var out []namedFrame
	g := tracegen.New(21)
	for _, label := range fingerprint.AllPlatformLabels() {
		for _, prov := range fingerprint.AllProviders() {
			for _, tr := range []fingerprint.Transport{fingerprint.TCP, fingerprint.QUIC} {
				if !fingerprint.SupportMatrix(label, prov) ||
					(tr == fingerprint.TCP && !fingerprint.SupportsTCP(label, prov)) ||
					(tr == fingerprint.QUIC && !fingerprint.SupportsQUIC(label, prov)) {
					continue
				}
				ft, err := g.Flow(label, prov, tr, tracegen.FlowSpec{PayloadFrames: 2})
				if err != nil {
					tb.Fatal(err)
				}
				for _, fr := range ft.Frames {
					out = append(out, namedFrame{label + "/" + prov.String() + "/" + tr.String(), fr.Data})
				}
			}
		}
	}

	var (
		client  = netip.MustParseAddrPort("192.168.1.7:50000")
		server  = netip.MustParseAddrPort("203.0.113.10:443")
		client6 = netip.MustParseAddrPort("[2001:db8::7]:50000")
		server6 = netip.MustParseAddrPort("[2001:db8::10]:443")
		// Addresses that differ only in their low halves, and not at all:
		// the second comparison word and the port tie-break.
		near6a = netip.MustParseAddrPort("[2001:db8::1:0:0:2]:443")
		near6b = netip.MustParseAddrPort("[2001:db8::1:0:0:1]:443")
		self   = netip.MustParseAddrPort("10.0.0.1:443")
		self2  = netip.MustParseAddrPort("10.0.0.1:442")
		// ::ffff:a.b.c.d inside an IPv6 header hashes as the IPv4 address.
		mapped6a = netip.AddrPortFrom(netip.AddrFrom16(netip.MustParseAddr("203.0.113.10").As16()), 443)
		mapped6b = netip.AddrPortFrom(netip.AddrFrom16(netip.MustParseAddr("192.168.1.7").As16()), 50000)
	)
	add := func(name string, data []byte) { out = append(out, namedFrame{name, data}) }
	add("IPv6 TCP client", craftFrame(client6, server6, packet.ProtoTCP, packet.FlagACK, make([]byte, 100), 0))
	add("IPv6 TCP server", craftFrame(server6, client6, packet.ProtoTCP, packet.FlagACK, make([]byte, 100), 0))
	add("IPv6 UDP with a trailer", craftFrame(server6, client6, packet.ProtoUDP, 0, shortHeader(nil, 60), 5))
	add("IPv6 low halves differ", craftFrame(near6a, near6b, packet.ProtoUDP, 0, shortHeader(nil, 30), 0))
	add("IPv6 v4-mapped", craftFrame(mapped6a, mapped6b, packet.ProtoTCP, packet.FlagACK, nil, 0))
	add("same address, ports descending", craftFrame(self, self2, packet.ProtoTCP, packet.FlagACK, nil, 0))
	add("same address, ports ascending", craftFrame(self2, self, packet.ProtoTCP, packet.FlagACK, nil, 0))
	add("same endpoint both ways", craftFrame(self, self, packet.ProtoUDP, 0, shortHeader(nil, 10), 0))
	add("TCP with a trailer", craftFrame(client, server, packet.ProtoTCP, packet.FlagSYN, nil, 6))
	add("UDP with a trailer", craftFrame(client, server, packet.ProtoUDP, 0, shortHeader(nil, 40), 6))

	// transport builds Ethernet/IPv4 around a hand-made transport segment.
	transport := func(ip packet.IPv4, seg []byte) []byte {
		ip.TTL, ip.Src, ip.Dst = 64, client.Addr(), server.Addr()
		eth := packet.Ethernet{EtherType: packet.EtherTypeIPv4}
		return eth.Append(nil, ip.Append(nil, seg))
	}
	tcp := packet.TCP{SrcPort: 50000, DstPort: 443, Flags: packet.FlagSYN, Window: 64240, Options: []packet.TCPOption{
		{Kind: packet.OptMSS, Data: []byte{5, 180}}, {Kind: packet.OptNOP}, {Kind: packet.OptWindowScale, Data: []byte{8}},
		{Kind: packet.OptSACKPermitted}, {Kind: packet.OptTimestamps, Data: make([]byte, 8)}}}
	synOpts := tcp.Append(nil, []byte("hello"), client.Addr(), server.Addr())
	add("TCP options", transport(packet.IPv4{Protocol: packet.ProtoTCP}, synOpts))
	add("IPv4 options", transport(packet.IPv4{Protocol: packet.ProtoTCP, Options: []byte{7, 4, 0, 0, 1, 1, 1, 0}}, synOpts))
	add("IPv4 options, UDP", transport(packet.IPv4{Protocol: packet.ProtoUDP, Options: []byte{1, 1, 1, 1}},
		(&packet.UDP{SrcPort: 50000, DstPort: 443}).Append(nil, shortHeader(nil, 33), client.Addr(), server.Addr())))
	for _, c := range []struct {
		name string
		opts []byte // the 12 option bytes of a 32-byte TCP header
	}{
		{"TCP option length 0", []byte{2, 0, 5, 180, 1, 1, 1, 1, 1, 1, 1, 1}},
		{"TCP option length 1", []byte{1, 1, 8, 1, 0, 0, 0, 0, 0, 0, 0, 0}},
		{"TCP option overruns the header", []byte{1, 1, 1, 1, 8, 10, 0, 0, 0, 0, 0, 0}},
		{"TCP option kind in the last byte", []byte{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 3}},
		{"TCP options after end-of-list", []byte{0, 9, 0, 9, 0, 9, 0, 9, 0, 9, 0, 9}},
	} {
		seg := (&packet.TCP{SrcPort: 50000, DstPort: 443, Flags: packet.FlagACK}).Append(nil, []byte("data"), client.Addr(), server.Addr())
		seg = append(append(append([]byte(nil), seg[:20]...), c.opts...), seg[20:]...)
		seg[12] = 8 << 4 // data offset: 32 bytes
		add(c.name, transport(packet.IPv4{Protocol: packet.ProtoTCP}, seg))
	}
	badOff := transport(packet.IPv4{Protocol: packet.ProtoTCP}, synOpts)
	badOff[14+20+12] = 4 << 4 // data offset under the fixed header
	add("TCP data offset 16", badOff)
	badIHL := transport(packet.IPv4{Protocol: packet.ProtoTCP}, synOpts)
	badIHL[14] = 4<<4 | 4
	add("IPv4 IHL 16", badIHL)
	shortTotal := transport(packet.IPv4{Protocol: packet.ProtoUDP},
		(&packet.UDP{SrcPort: 50000, DstPort: 443}).Append(nil, shortHeader(nil, 33), client.Addr(), server.Addr()))
	binary.BigEndian.PutUint16(shortTotal[14+2:], 12) // total length under the header: the frame's end stands
	add("IPv4 total length under IHL", shortTotal)
	udpLen := transport(packet.IPv4{Protocol: packet.ProtoUDP},
		(&packet.UDP{SrcPort: 50000, DstPort: 443}).Append(nil, shortHeader(nil, 33), client.Addr(), server.Addr()))
	binary.BigEndian.PutUint16(udpLen[14+20+4:], 3)
	add("UDP length under its header", udpLen)
	wrongVersion := craftFrame(client, server, packet.ProtoTCP, packet.FlagACK, nil, 0)
	wrongVersion[14] = 6<<4 | 5
	add("IPv4 EtherType, version 6", wrongVersion)
	wrongVersion6 := craftFrame(client6, server6, packet.ProtoTCP, packet.FlagACK, nil, 0)
	wrongVersion6[14] = 4 << 4
	add("IPv6 EtherType, version 4", wrongVersion6)

	add("ICMP", transport(packet.IPv4{Protocol: 1}, []byte{8, 0, 0, 0, 0, 1, 0, 1}))
	vlan := craftFrame(client, server, packet.ProtoTCP, packet.FlagACK, nil, 0)
	vlan = append(append(append([]byte(nil), vlan[:12]...), 0x81, 0x00, 0, 7), vlan[12:]...)
	add("802.1Q tag", vlan)
	add("ARP", (&packet.Ethernet{EtherType: 0x0806}).Append(nil, make([]byte, 28)))
	add("IPv6 fragment header", (&packet.Ethernet{EtherType: packet.EtherTypeIPv6}).Append(nil,
		(&packet.IPv6{Protocol: 44, HopLimit: 64, Src: client6.Addr(), Dst: server6.Addr()}).Append(nil, make([]byte, 48))))
	for _, fr := range fragmentedDatagram(client, server) {
		add("IPv4 fragment", fr)
	}
	return out
}

// fragmentedDatagram is one UDP datagram from src to dst — a 1,200-byte
// short header — cut into two IPv4 fragments 800 bytes into the segment. The
// second carries no UDP header: its first bytes are payload, which here read
// as a source port of 443.
func fragmentedDatagram(src, dst netip.AddrPort) [2][]byte {
	payload := shortHeader(nil, 1200)
	binary.BigEndian.PutUint16(payload[800-8:], 443)
	seg := (&packet.UDP{SrcPort: src.Port(), DstPort: dst.Port()}).Append(nil, payload, src.Addr(), dst.Addr())
	eth := packet.Ethernet{EtherType: packet.EtherTypeIPv4}
	first := packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, ID: 7, Flags: 1, Src: src.Addr(), Dst: dst.Addr()} // more fragments
	rest := first
	rest.Flags, rest.FragOff = 0, 800/8
	return [2][]byte{eth.Append(nil, first.Append(nil, seg[:800])), eth.Append(nil, rest.Append(nil, seg[800:]))}
}

// TestSummaryMatchesParse is the differential test of the per-packet decode:
// on every frame of the table, and on every truncation of each, Summary
// agrees with Parse + Flow + Canonical + the hash of the canonical key.
func TestSummaryMatchesParse(t *testing.T) {
	for _, fr := range summaryFrames(t) {
		for n := 0; n <= len(fr.data); n++ {
			checkSummary(t, fr.name, fr.data[:n:n])
		}
	}
}

// FuzzSummaryMatchesParse is TestSummaryMatchesParse on arbitrary bytes,
// seeded with its table.
func FuzzSummaryMatchesParse(f *testing.F) {
	for _, fr := range summaryFrames(f) {
		f.Add(fr.data)
	}
	f.Fuzz(func(t *testing.T, frame []byte) { checkSummary(t, "fuzz", frame) })
}

// TestFragmentBodyIsNoFlow pins the fragment fix: a non-first IPv4 fragment
// has no transport header, so its leading payload bytes must not be read as
// ports. A two-fragment datagram is one flow counting the first fragment's
// bytes; the second is a frame without a 5-tuple, through a Pipeline and
// through a Sharded.
func TestFragmentBodyIsNoFlow(t *testing.T) {
	client := netip.MustParseAddrPort("192.168.1.7:50000")
	server := netip.MustParseAddrPort("203.0.113.10:443")
	frags := fragmentedDatagram(server, client)
	now := time.Date(2023, 7, 7, 0, 0, 0, 0, time.UTC)

	check := func(name string, flows []*FlowRecord) {
		t.Helper()
		if len(flows) != 1 {
			t.Fatalf("%s: %d flows, want 1 (the fragment body keyed a ghost flow)", name, len(flows))
		}
		rec := flows[0]
		if want := (packet.FlowKey{Src: client.Addr(), Dst: server.Addr(), SrcPort: 50000, DstPort: 443, Proto: packet.ProtoUDP}); rec.Key != want {
			t.Errorf("%s: flow key %v, want %v", name, rec.Key, want)
		}
		if rec.PacketsDown != 1 || rec.BytesDown != 800-8 || rec.PacketsUp != 0 {
			t.Errorf("%s: %d packets / %d bytes down, %d packets up; want the first fragment's 1 / %d and none up",
				name, rec.PacketsDown, rec.BytesDown, rec.PacketsUp, 800-8)
		}
	}

	p := New(emptyBank())
	for _, fr := range frags {
		if _, err := p.HandlePacket(now, fr); err != nil {
			t.Fatal(err)
		}
	}
	check("Pipeline", p.Flows())
	if got := p.Stats().Packets; got != 2 {
		t.Errorf("Pipeline counted %d packets, want 2", got)
	}

	s := NewShardedWithConfig(emptyBank(), 2, Config{})
	for _, fr := range frags {
		s.HandlePacketBatch([]IngestPacket{{TS: now, Data: fr}})
	}
	s.Close()
	check("Sharded", s.Flows())
	if st := s.IngestStats(); st.Ignored != 1 || st.Filtered != 0 {
		t.Errorf("Sharded ignored %d and filtered %d frames, want 1 and 0", st.Ignored, st.Filtered)
	}
}
