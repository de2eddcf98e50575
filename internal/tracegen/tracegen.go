// Package tracegen renders fingerprint flow descriptions into packet-level
// traces following the session anatomy of the paper's Fig 2: a management
// flow to the provider's management server followed by one or more content
// flows that carry the video, each opened by a TCP or QUIC + TLS handshake.
//
// It also assembles labeled datasets: the lab dataset with the exact flow
// composition of Table 1 and the open-set dataset of §4.3.2 with
// version-drifted platform behaviour.
package tracegen

import (
	"fmt"
	"io"
	"math/rand/v2"
	"net/netip"
	"time"

	"videoplat/internal/fingerprint"
	"videoplat/internal/packet"
	"videoplat/internal/pcap"
	"videoplat/internal/quicproto"
)

// Frame is one rendered packet with its offset from the flow start.
type Frame struct {
	Offset         time.Duration
	Data           []byte
	ClientToServer bool
}

// FlowTrace is a rendered video flow: handshake frames plus representative
// payload frames, together with flow-level telemetry totals used by the
// campus workload model.
type FlowTrace struct {
	Label     string
	Provider  fingerprint.Provider
	Transport fingerprint.Transport
	SNI       string
	Frames    []Frame

	// Telemetry ground truth.
	Start      time.Time
	Duration   time.Duration
	TotalBytes int64 // downstream payload volume

	// Flow endpoints (client side first).
	ClientAddr, ServerAddr netip.Addr
	ClientPort, ServerPort uint16

	// Migration ground truth: when Migrated is set the client switched to
	// MigratedAddr:MigratedPort partway through the flow (QUIC connection
	// migration) and every frame after the switch rides the new 5-tuple.
	Migrated     bool
	MigratedAddr netip.Addr
	MigratedPort uint16
}

// MigratedKey returns the post-migration flow key. Only meaningful when
// Migrated is set.
func (ft *FlowTrace) MigratedKey() packet.FlowKey {
	return packet.FlowKey{
		Src: ft.MigratedAddr, Dst: ft.ServerAddr,
		SrcPort: ft.MigratedPort, DstPort: ft.ServerPort,
		Proto: packet.ProtoUDP,
	}
}

// Key returns the canonical flow key of the trace.
func (ft *FlowTrace) Key() packet.FlowKey {
	proto := packet.ProtoTCP
	if ft.Transport == fingerprint.QUIC {
		proto = packet.ProtoUDP
	}
	return packet.FlowKey{
		Src: ft.ClientAddr, Dst: ft.ServerAddr,
		SrcPort: ft.ClientPort, DstPort: ft.ServerPort,
		Proto: proto,
	}
}

// Generator renders flows and datasets deterministically from a seed.
type Generator struct {
	rng *rand.Rand
}

// New returns a Generator seeded deterministically.
func New(seed uint64) *Generator {
	return &Generator{rng: rand.New(rand.NewPCG(seed, seed^0xda3e39cb94b95bdb))}
}

// serverAddrFor gives each provider a stable, documentation-range server
// address so flows are visually attributable in PCAPs.
func serverAddrFor(prov fingerprint.Provider) netip.Addr {
	switch prov {
	case fingerprint.YouTube:
		return netip.MustParseAddr("203.0.113.10")
	case fingerprint.Netflix:
		return netip.MustParseAddr("203.0.113.20")
	case fingerprint.Disney:
		return netip.MustParseAddr("203.0.113.30")
	default:
		return netip.MustParseAddr("203.0.113.40")
	}
}

// ProviderOfAddr is the inverse of the synthetic address plan: given a
// server address it returns the provider hosted there. It stands in for the
// IP-to-AS hint an ISP deployment would derive from BGP or CDN prefix lists,
// and feeds degraded classification when the hello is encrypted or absent.
func ProviderOfAddr(addr netip.Addr) (fingerprint.Provider, bool) {
	for _, prov := range fingerprint.AllProviders() {
		if serverAddrFor(prov) == addr {
			return prov, true
		}
	}
	return 0, false
}

// FlowSpec controls payload shape; zero values draw lab-like defaults.
type FlowSpec struct {
	Start      time.Time
	Duration   time.Duration
	TotalBytes int64
	Options    fingerprint.Options
	// PayloadFrames caps how many representative payload packets are
	// rendered (handshake frames are always complete). Default 4.
	PayloadFrames int
	// MigrateMidHandshake splits the ClientHello across two Initial
	// packets and migrates the client tuple between them, so the tap sees
	// the handshake finish on a different 5-tuple than it started on.
	// Only meaningful with Options.Migration on a QUIC flow; the default
	// migrates mid-stream, after the handshake completed.
	MigrateMidHandshake bool
}

// Flow renders one labeled video flow.
func (g *Generator) Flow(label string, prov fingerprint.Provider, tr fingerprint.Transport, spec FlowSpec) (*FlowTrace, error) {
	fp, err := fingerprint.Generate(g.rng, label, prov, tr, spec.Options)
	if err != nil {
		return nil, err
	}
	if spec.Duration == 0 {
		spec.Duration = time.Duration(60+g.rng.IntN(120)) * time.Second
	}
	if spec.TotalBytes == 0 {
		// ~1-8 Mbps for the drawn duration
		mbps := 1 + g.rng.Float64()*7
		spec.TotalBytes = int64(mbps * 1e6 / 8 * spec.Duration.Seconds())
	}
	if spec.PayloadFrames == 0 {
		spec.PayloadFrames = 4
	}
	if spec.Start.IsZero() {
		spec.Start = time.Date(2023, 7, 7, 0, 0, 0, 0, time.UTC)
	}

	ft := &FlowTrace{
		Label: label, Provider: prov, Transport: tr, SNI: fp.SNI,
		Start: spec.Start, Duration: spec.Duration, TotalBytes: spec.TotalBytes,
		ClientAddr: netip.AddrFrom4([4]byte{192, 168, 1, byte(2 + g.rng.IntN(250))}),
		ServerAddr: serverAddrFor(prov),
		ClientPort: uint16(49152 + g.rng.IntN(16000)),
		ServerPort: 443,
	}

	// The ISP observes TTLs after a few campus/home hops.
	hops := uint8(1 + g.rng.IntN(3))
	obsTTL := fp.TTL - hops

	if tr == fingerprint.TCP {
		g.renderTCP(ft, fp, obsTTL, spec)
	} else {
		if err := g.renderQUIC(ft, fp, obsTTL, spec); err != nil {
			return nil, err
		}
	}
	return ft, nil
}

func (g *Generator) ipTemplate(ft *FlowTrace, ttl uint8, c2s bool) (packet.IPv4, packet.Ethernet) {
	ip := packet.IPv4{TTL: ttl, Protocol: packet.ProtoTCP,
		Src: ft.ClientAddr, Dst: ft.ServerAddr, ID: uint16(g.rng.UintN(65536))}
	if !c2s {
		ip.Src, ip.Dst = ft.ServerAddr, ft.ClientAddr
		ip.TTL = 57 // server-side TTL as seen at the tap
	}
	return ip, packet.Ethernet{EtherType: packet.EtherTypeIPv4}
}

func (g *Generator) appendFrame(ft *FlowTrace, off time.Duration, c2s bool, ttl uint8, proto uint8, segment []byte) {
	ip, eth := g.ipTemplate(ft, ttl, c2s)
	ip.Protocol = proto
	frame := eth.Append(nil, ip.Append(nil, segment))
	ft.Frames = append(ft.Frames, Frame{Offset: off, Data: frame, ClientToServer: c2s})
}

// renderTCP renders SYN, SYN-ACK, ACK, ClientHello, a server flight and a
// few payload frames.
func (g *Generator) renderTCP(ft *FlowTrace, fp *fingerprint.Flow, ttl uint8, spec FlowSpec) {
	mkOpts := func(syn bool) []packet.TCPOption {
		var opts []packet.TCPOption
		if !syn {
			if fp.Timestamps {
				tsVal := make([]byte, 8)
				opts = append(opts, packet.TCPOption{Kind: packet.OptNOP},
					packet.TCPOption{Kind: packet.OptNOP},
					packet.TCPOption{Kind: packet.OptTimestamps, Data: tsVal})
			}
			return opts
		}
		opts = append(opts, packet.TCPOption{Kind: packet.OptMSS,
			Data: []byte{byte(fp.MSS >> 8), byte(fp.MSS)}})
		if fp.SACK {
			opts = append(opts, packet.TCPOption{Kind: packet.OptNOP},
				packet.TCPOption{Kind: packet.OptNOP},
				packet.TCPOption{Kind: packet.OptSACKPermitted})
		}
		if fp.Timestamps {
			tsVal := make([]byte, 8)
			opts = append(opts, packet.TCPOption{Kind: packet.OptTimestamps, Data: tsVal})
		}
		if fp.WScale >= 0 {
			opts = append(opts, packet.TCPOption{Kind: packet.OptNOP},
				packet.TCPOption{Kind: packet.OptWindowScale, Data: []byte{byte(fp.WScale)}})
		}
		return opts
	}

	clientSeq := g.rng.Uint32()
	serverSeq := g.rng.Uint32()

	synFlags := packet.FlagSYN
	if fp.ECN {
		synFlags |= packet.FlagECE | packet.FlagCWR
	}
	syn := packet.TCP{SrcPort: ft.ClientPort, DstPort: ft.ServerPort,
		Seq: clientSeq, Flags: synFlags, Window: fp.Window, Options: mkOpts(true)}
	g.appendFrame(ft, 0, true, ttl, packet.ProtoTCP,
		syn.Append(nil, nil, ft.ClientAddr, ft.ServerAddr))

	synAck := packet.TCP{SrcPort: ft.ServerPort, DstPort: ft.ClientPort,
		Seq: serverSeq, Ack: clientSeq + 1, Flags: packet.FlagSYN | packet.FlagACK,
		Window: 65160, Options: mkOpts(true)}
	g.appendFrame(ft, 12*time.Millisecond, false, 0, packet.ProtoTCP,
		synAck.Append(nil, nil, ft.ServerAddr, ft.ClientAddr))

	ack := packet.TCP{SrcPort: ft.ClientPort, DstPort: ft.ServerPort,
		Seq: clientSeq + 1, Ack: serverSeq + 1, Flags: packet.FlagACK,
		Window: fp.Window, Options: mkOpts(false)}
	g.appendFrame(ft, 13*time.Millisecond, true, ttl, packet.ProtoTCP,
		ack.Append(nil, nil, ft.ClientAddr, ft.ServerAddr))

	chloRecord := fp.Hello.MarshalRecord()
	chlo := packet.TCP{SrcPort: ft.ClientPort, DstPort: ft.ServerPort,
		Seq: clientSeq + 1, Ack: serverSeq + 1, Flags: packet.FlagACK | packet.FlagPSH,
		Window: fp.Window, Options: mkOpts(false)}
	g.appendFrame(ft, 14*time.Millisecond, true, ttl, packet.ProtoTCP,
		chlo.Append(nil, chloRecord, ft.ClientAddr, ft.ServerAddr))

	// Server flight (ServerHello + encrypted extensions, abstracted).
	sh := packet.TCP{SrcPort: ft.ServerPort, DstPort: ft.ClientPort,
		Seq: serverSeq + 1, Ack: clientSeq + 1 + uint32(len(chloRecord)),
		Flags: packet.FlagACK | packet.FlagPSH, Window: 65160, Options: mkOpts(false)}
	g.appendFrame(ft, 26*time.Millisecond, false, 0, packet.ProtoTCP,
		sh.Append(nil, make([]byte, 1200), ft.ServerAddr, ft.ClientAddr))

	g.renderPayload(ft, spec, packet.ProtoTCP, ttl)
}

// randomCID draws an n-byte connection ID.
func (g *Generator) randomCID(n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(g.rng.UintN(256))
	}
	return b
}

// longHeaderPacket builds a structurally valid long-header packet of the
// given type: readable first byte, version and connection IDs, followed by
// an opaque (random) body. This is exactly what an on-path observer can and
// cannot see of a server flight, a 0-RTT packet or a Handshake packet.
func (g *Generator) longHeaderPacket(typ uint8, dcid, scid []byte, size int) []byte {
	buf := make([]byte, 0, size)
	buf = append(buf, 0xc0|typ<<4|byte(g.rng.UintN(16)))
	buf = append(buf, 0, 0, 0, 1) // version 1
	buf = append(buf, byte(len(dcid)))
	buf = append(buf, dcid...)
	buf = append(buf, byte(len(scid)))
	buf = append(buf, scid...)
	for len(buf) < size {
		buf = append(buf, byte(g.rng.UintN(256)))
	}
	return buf
}

// shortHeaderPacket builds a 1-RTT short-header packet: fixed bit, random
// spin/key bits, the destination CID (whose length is not on the wire), and
// an opaque body.
func (g *Generator) shortHeaderPacket(dcid []byte, size int) []byte {
	buf := make([]byte, 0, size)
	buf = append(buf, 0x40|byte(g.rng.UintN(0x40)))
	buf = append(buf, dcid...)
	for len(buf) < size {
		buf = append(buf, byte(g.rng.UintN(256)))
	}
	return buf
}

// appendMigratedFrame renders a frame on the post-migration client tuple.
func (g *Generator) appendMigratedFrame(ft *FlowTrace, off time.Duration, c2s bool, ttl uint8, segment []byte) {
	ip := packet.IPv4{TTL: ttl, Protocol: packet.ProtoUDP,
		Src: ft.MigratedAddr, Dst: ft.ServerAddr, ID: uint16(g.rng.UintN(65536))}
	if !c2s {
		ip.Src, ip.Dst = ft.ServerAddr, ft.MigratedAddr
		ip.TTL = 57
	}
	eth := packet.Ethernet{EtherType: packet.EtherTypeIPv4}
	frame := eth.Append(nil, ip.Append(nil, segment))
	ft.Frames = append(ft.Frames, Frame{Offset: off, Data: frame, ClientToServer: c2s})
}

// renderQUIC renders the client Initial (carrying the ClientHello in a
// CRYPTO frame), a server response datagram and payload frames. The
// adversarial Options knobs reshape the handshake: ZeroRTT replaces the
// Initial with opaque early-data packets, and Migration moves the client to
// a new 5-tuple either between the two halves of a split hello
// (MigrateMidHandshake) or after the handshake completed.
func (g *Generator) renderQUIC(ft *FlowTrace, fp *fingerprint.Flow, ttl uint8, spec FlowSpec) error {
	// The server's chosen CID, which post-handshake client packets carry as
	// their destination. Observable in the server's long-header flight.
	serverCID := g.randomCID(8)
	if spec.Options.Migration {
		ft.Migrated = true
		// A path change typically lands the client on a different access
		// network (say WiFi to cellular), so draw a fresh address block.
		ft.MigratedAddr = netip.AddrFrom4([4]byte{10, 20, 0, byte(2 + g.rng.IntN(250))})
		ft.MigratedPort = uint16(49152 + g.rng.IntN(16000))
	}
	if spec.Options.ZeroRTT {
		return g.renderQUICZeroRTT(ft, fp, serverCID, ttl, spec)
	}

	hello := fp.Hello.Marshal()
	udp := packet.UDP{SrcPort: ft.ClientPort, DstPort: ft.ServerPort}
	// seal encrypts client Initial pn, carrying hello[off:end] in one CRYPTO frame.
	seal := func(pn uint64, off, end, minSize int) ([]byte, error) {
		in := quicproto.Initial{Version: quicproto.Version1, DCID: fp.DCID, SCID: fp.SCID, PacketNumber: pn,
			Crypto: []quicproto.CryptoFrame{{Offset: uint64(off), Data: hello[off:end]}}}
		dg, err := in.Seal(minSize)
		if err != nil {
			return nil, fmt.Errorf("tracegen: sealing initial: %w", err)
		}
		return dg, nil
	}
	splitHandshake := ft.Migrated && spec.MigrateMidHandshake
	if splitHandshake {
		// Hello split across two Initials; the path changes between them,
		// so the second CRYPTO fragment arrives from the migrated tuple and
		// only the connection IDs tie the halves together.
		k := len(hello) / 2
		dg1, err := seal(0, 0, k, 0)
		if err != nil {
			return err
		}
		g.appendFrame(ft, 0, true, ttl, packet.ProtoUDP,
			udp.Append(nil, dg1, ft.ClientAddr, ft.ServerAddr))
		dg2, err := seal(1, k, len(hello), 0)
		if err != nil {
			return err
		}
		migUDP := packet.UDP{SrcPort: ft.MigratedPort, DstPort: ft.ServerPort}
		g.appendMigratedFrame(ft, 2*time.Millisecond, true, ttl,
			migUDP.Append(nil, dg2, ft.MigratedAddr, ft.ServerAddr))
	} else {
		datagram, err := seal(0, 0, len(hello), fp.QUICTargetSize)
		if err != nil {
			return err
		}
		g.appendFrame(ft, 0, true, ttl, packet.ProtoUDP,
			udp.Append(nil, datagram, ft.ClientAddr, ft.ServerAddr))
	}

	// Server Initial+Handshake flight: opaque body behind a readable
	// long-header prefix that echoes the client's SCID and announces the
	// server's CID.
	resp := g.longHeaderPacket(quicproto.TypeHandshake, fp.SCID, serverCID, 1200)
	respUDP := packet.UDP{SrcPort: ft.ServerPort, DstPort: ft.ClientPort}
	if splitHandshake {
		// The server replies to wherever the handshake finished — the
		// migrated tuple, port included.
		respUDP.DstPort = ft.MigratedPort
		g.appendMigratedFrame(ft, 14*time.Millisecond, false, 0,
			respUDP.Append(nil, resp, ft.ServerAddr, ft.MigratedAddr))
	} else {
		g.appendFrame(ft, 14*time.Millisecond, false, 0, packet.ProtoUDP,
			respUDP.Append(nil, resp, ft.ServerAddr, ft.ClientAddr))
	}

	if ft.Migrated && !splitHandshake {
		// Mid-stream migration: the first packet on the new path is a
		// client short header carrying the server's CID — the only wire
		// evidence linking the tuples.
		seg := g.shortHeaderPacket(serverCID, 160)
		migUDP := packet.UDP{SrcPort: ft.MigratedPort, DstPort: ft.ServerPort}
		g.appendMigratedFrame(ft, 40*time.Millisecond, true, ttl,
			migUDP.Append(nil, seg, ft.MigratedAddr, ft.ServerAddr))
	}

	g.renderPayloadQUIC(ft, fp.SCID, spec)
	return nil
}

// renderQUICZeroRTT renders a session-resumption flow: the client sends
// 0-RTT early-data packets under keys from a previous session, so no
// ClientHello ever crosses the tap. Everything past the long-header CIDs is
// opaque.
func (g *Generator) renderQUICZeroRTT(ft *FlowTrace, fp *fingerprint.Flow, serverCID []byte, ttl uint8, spec FlowSpec) error {
	udp := packet.UDP{SrcPort: ft.ClientPort, DstPort: ft.ServerPort}
	for i := 0; i < 2; i++ {
		early := g.longHeaderPacket(quicproto.Type0RTT, fp.DCID, fp.SCID, fp.QUICTargetSize)
		g.appendFrame(ft, time.Duration(i)*time.Millisecond, true, ttl, packet.ProtoUDP,
			udp.Append(nil, early, ft.ClientAddr, ft.ServerAddr))
	}

	resp := g.longHeaderPacket(quicproto.TypeHandshake, fp.SCID, serverCID, 1200)
	respUDP := packet.UDP{SrcPort: ft.ServerPort, DstPort: ft.ClientPort}
	g.appendFrame(ft, 14*time.Millisecond, false, 0, packet.ProtoUDP,
		respUDP.Append(nil, resp, ft.ServerAddr, ft.ClientAddr))

	// The client's switch to short headers confirms no fresh handshake is
	// coming: the resumption either completed or was rejected, and either
	// way the tap never saw a hello.
	seg := g.shortHeaderPacket(serverCID, 160)
	if ft.Migrated {
		migUDP := packet.UDP{SrcPort: ft.MigratedPort, DstPort: ft.ServerPort}
		g.appendMigratedFrame(ft, 40*time.Millisecond, true, ttl,
			migUDP.Append(nil, seg, ft.MigratedAddr, ft.ServerAddr))
	} else {
		g.appendFrame(ft, 16*time.Millisecond, true, ttl, packet.ProtoUDP,
			udp.Append(nil, seg, ft.ClientAddr, ft.ServerAddr))
	}

	g.renderPayloadQUIC(ft, fp.SCID, spec)
	return nil
}

// renderPayload adds a few representative TCP application-data frames
// spread over the flow duration.
func (g *Generator) renderPayload(ft *FlowTrace, spec FlowSpec, proto uint8, ttl uint8) {
	n := spec.PayloadFrames
	for i := 0; i < n; i++ {
		off := 50*time.Millisecond + time.Duration(float64(spec.Duration)*float64(i+1)/float64(n+1))
		size := 1200 + g.rng.IntN(200)
		body := make([]byte, size)
		tcp := packet.TCP{SrcPort: ft.ServerPort, DstPort: ft.ClientPort,
			Seq: g.rng.Uint32(), Ack: g.rng.Uint32(), Flags: packet.FlagACK,
			Window: 65160}
		g.appendFrame(ft, off, false, 0, proto,
			tcp.Append(nil, body, ft.ServerAddr, ft.ClientAddr))
	}
}

// renderPayloadQUIC adds representative server→client short-header frames
// carrying the client's CID as destination. On migrated flows the frames
// follow the client to its post-migration tuple.
func (g *Generator) renderPayloadQUIC(ft *FlowTrace, clientCID []byte, spec FlowSpec) {
	n := spec.PayloadFrames
	for i := 0; i < n; i++ {
		off := 50*time.Millisecond + time.Duration(float64(spec.Duration)*float64(i+1)/float64(n+1))
		size := 1200 + g.rng.IntN(200)
		body := g.shortHeaderPacket(clientCID, size)
		if ft.Migrated {
			udp := packet.UDP{SrcPort: ft.ServerPort, DstPort: ft.MigratedPort}
			g.appendMigratedFrame(ft, off, false, 0,
				udp.Append(nil, body, ft.ServerAddr, ft.MigratedAddr))
		} else {
			udp := packet.UDP{SrcPort: ft.ServerPort, DstPort: ft.ClientPort}
			g.appendFrame(ft, off, false, 0, packet.ProtoUDP,
				udp.Append(nil, body, ft.ServerAddr, ft.ClientAddr))
		}
	}
}

// Session renders a full Fig 2 video session: one management flow to the
// provider's front-end plus 1–3 content flows.
func (g *Generator) Session(label string, prov fingerprint.Provider, opts fingerprint.Options) ([]*FlowTrace, error) {
	var flows []*FlowTrace
	mgmtOpts := opts
	mgmtOpts.ManagementFlow = true
	mgmt, err := g.Flow(label, prov, fingerprint.TCP, FlowSpec{
		Duration: 5 * time.Second, TotalBytes: 200 << 10, Options: mgmtOpts})
	if err != nil {
		return nil, err
	}
	flows = append(flows, mgmt)

	tr := fingerprint.TCP
	if fingerprint.SupportsQUIC(label, prov) && g.rng.Float64() < 0.5 {
		tr = fingerprint.QUIC
	}
	for i, n := 0, 1+g.rng.IntN(3); i < n; i++ {
		f, err := g.Flow(label, prov, tr, FlowSpec{Options: opts})
		if err != nil {
			return nil, err
		}
		flows = append(flows, f)
	}
	return flows, nil
}

// WritePCAP writes the traces' frames, merged in timestamp order, as a
// libpcap file.
func WritePCAP(w io.Writer, traces []*FlowTrace) error {
	pw, err := pcap.NewWriter(w, 0)
	if err != nil {
		return err
	}
	type ev struct {
		ts   time.Time
		data []byte
	}
	var evs []ev
	for _, ft := range traces {
		for _, fr := range ft.Frames {
			evs = append(evs, ev{ft.Start.Add(fr.Offset), fr.Data})
		}
	}
	// insertion sort by timestamp (trace lists are mostly ordered)
	for i := 1; i < len(evs); i++ {
		for j := i; j > 0 && evs[j].ts.Before(evs[j-1].ts); j-- {
			evs[j], evs[j-1] = evs[j-1], evs[j]
		}
	}
	for _, e := range evs {
		if err := pw.WritePacket(e.ts, e.data); err != nil {
			return err
		}
	}
	return nil
}
