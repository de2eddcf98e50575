// Package tracegen renders fingerprint flow descriptions into packet-level
// traces following the session anatomy of the paper's Fig 2: a management
// flow to the provider's management server followed by one or more content
// flows that carry the video, each opened by a TCP or QUIC + TLS handshake.
//
// It also assembles labeled datasets: the lab dataset with the exact flow
// composition of Table 1 and the open-set dataset of §4.3.2 with
// version-drifted platform behaviour.
//
// Corpus is the scenario corpus every golden, fuzz seed and daemon replay
// draws: an open-set flow per (platform, provider, transport), ECH, 0-RTT and
// migration flows, and hand-built flows no fingerprint renders. A new case is
// added to it once; Replay turns it, or any fixed traces, into a Stream.
package tracegen

import (
	"fmt"
	"math/rand/v2"
	"net/netip"
	"time"

	"videoplat/internal/fingerprint"
	"videoplat/internal/packet"
	"videoplat/internal/quicproto"
)

// Frame is one rendered packet with its offset from the flow start.
type Frame struct {
	Offset time.Duration
	// Data is the whole Ethernet frame. Each frame owns its buffer: it
	// shares no bytes with another frame, and a caller may modify it
	// (TestFramesOwnTheirBuffers).
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
	// src is rng's source. Opaque bytes are drawn from it directly:
	// byte(src.Uint64()) is the value and the draw rng.UintN(256) makes.
	src *rand.PCG
	// sealer encrypts the client Initials of QUIC renders.
	sealer quicproto.Sealer
}

// New returns a Generator seeded deterministically.
func New(seed uint64) *Generator {
	src := rand.NewPCG(seed, seed^0xda3e39cb94b95bdb)
	return &Generator{rng: rand.New(src), src: src}
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

// renderEpoch is the start of a flow rendered without one.
var renderEpoch = time.Date(2023, 7, 7, 0, 0, 0, 0, time.UTC)

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

// Flow renders one labeled video flow: it draws the flow's fingerprint and
// renders it with Render.
func (g *Generator) Flow(label string, prov fingerprint.Provider, tr fingerprint.Transport, spec FlowSpec) (*FlowTrace, error) {
	fp, err := fingerprint.Generate(g.rng, label, prov, tr, spec.Options)
	if err != nil {
		return nil, err
	}
	return g.Render(label, fp, 0, spec)
}

// Render renders fp, a fingerprint drawn for the platform label, into
// frames. hops is the number of routers between the client and the tap,
// which decrements the observed TTL; 0 draws 1–3 after the flow's
// endpoints, as Flow does. fp and hops decide every Table 2 attribute of
// the client's frames; the generator's own draws (endpoints, sequence
// numbers, IP IDs, opaque bytes) decide none, so a caller that parses the
// frames back gets the same attributes whatever the generator's seed.
func (g *Generator) Render(label string, fp *fingerprint.Flow, hops uint8, spec FlowSpec) (*FlowTrace, error) {
	prov, tr := fp.Provider, fp.Transport
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
		spec.Start = renderEpoch
	}

	ft := &FlowTrace{
		Label: label, Provider: prov, Transport: tr, SNI: fp.SNI,
		Start: spec.Start, Duration: spec.Duration, TotalBytes: spec.TotalBytes,
		ClientAddr: netip.AddrFrom4([4]byte{192, 168, 1, byte(2 + g.rng.IntN(250))}),
		ServerAddr: serverAddrFor(prov),
		ClientPort: uint16(49152 + g.rng.IntN(16000)),
		ServerPort: 443,
		// Every frame the flow can have: five handshake frames at most.
		Frames: make([]Frame, 0, 5+spec.PayloadFrames),
	}

	// The ISP observes TTLs after a few campus/home hops.
	if hops == 0 {
		hops = uint8(1 + g.rng.IntN(3))
	}
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

// frameHeadroom is the room a frame buffer keeps ahead of its segment for
// the Ethernet and IPv4 headers, written in place once the segment is done.
const frameHeadroom = 14 + 20

// zeros backs the all-zero bodies (TCP payload and the TCP server flight).
// They are copied from it, never aliased, and it is never written.
var zeros [1400]byte

// newFrame returns an empty frame buffer for ft: the room its headers take
// (Ethernet, IPv4 and, on a QUIC flow, UDP), with capacity for n more bytes
// — the TCP segment, or the UDP payload, that the caller appends.
func newFrame(ft *FlowTrace, n int) []byte {
	room := frameHeadroom
	if ft.Transport == fingerprint.QUIC {
		room += 8
	}
	return make([]byte, room, room+n)
}

// appendFrame completes buf, a newFrame buffer holding a segment or UDP
// payload, as a packet between the client tuple and ft's server: it writes
// the UDP header (on a QUIC flow), then the IPv4 and Ethernet headers into
// the room left for them, and adds the frame to ft. The IP ID is drawn
// after every draw the segment made: the draw order is part of every
// rendered byte (TestRenderedBytesPinned).
func (g *Generator) appendFrame(ft *FlowTrace, off time.Duration, c2s bool, ttl uint8, client netip.AddrPort, buf []byte) {
	ip := packet.IPv4{TTL: ttl, Protocol: packet.ProtoTCP, Src: client.Addr(), Dst: ft.ServerAddr}
	if !c2s {
		ip.Src, ip.Dst = ft.ServerAddr, client.Addr()
		ip.TTL = 57 // server-side TTL as seen at the tap
	}
	if ft.Transport == fingerprint.QUIC {
		ip.Protocol = packet.ProtoUDP
		udp := packet.UDP{SrcPort: client.Port(), DstPort: ft.ServerPort}
		if !c2s {
			udp.SrcPort, udp.DstPort = ft.ServerPort, client.Port()
		}
		udp.Put(buf[frameHeadroom:], ip.Src, ip.Dst)
	}
	ip.ID = uint16(g.rng.UintN(65536))
	// Appending to a prefix of buf writes into its headroom.
	eth := packet.Ethernet{EtherType: packet.EtherTypeIPv4}
	ip.AppendHeader(eth.Append(buf[:0], nil), len(buf)-frameHeadroom)
	ft.Frames = append(ft.Frames, Frame{Offset: off, Data: buf, ClientToServer: c2s})
}

// appendTCP renders t, carrying payload, as a frame between ft's client and
// server.
func (g *Generator) appendTCP(ft *FlowTrace, off time.Duration, c2s bool, ttl uint8, t *packet.TCP, payload []byte) {
	src, dst := ft.ClientAddr, ft.ServerAddr
	if !c2s {
		src, dst = dst, src
	}
	buf := t.Append(newFrame(ft, 60+len(payload)), payload, src, dst)
	g.appendFrame(ft, off, c2s, ttl, netip.AddrPortFrom(ft.ClientAddr, ft.ClientPort), buf)
}

// renderTCP renders SYN, SYN-ACK, ACK, ClientHello, a server flight and a
// few payload frames.
func (g *Generator) renderTCP(ft *FlowTrace, fp *fingerprint.Flow, ttl uint8, spec FlowSpec) {
	// The handshake's options, built once: both SYNs carry synOpts and
	// every later segment of the handshake dataOpts. Append only reads them.
	synOpts := make([]packet.TCPOption, 0, 8)
	synOpts = append(synOpts, packet.TCPOption{Kind: packet.OptMSS,
		Data: []byte{byte(fp.MSS >> 8), byte(fp.MSS)}})
	if fp.SACK {
		synOpts = append(synOpts, packet.TCPOption{Kind: packet.OptNOP},
			packet.TCPOption{Kind: packet.OptNOP},
			packet.TCPOption{Kind: packet.OptSACKPermitted})
	}
	var dataOpts []packet.TCPOption
	if fp.Timestamps {
		synOpts = append(synOpts, packet.TCPOption{Kind: packet.OptTimestamps, Data: zeros[:8]})
		dataOpts = []packet.TCPOption{{Kind: packet.OptNOP}, {Kind: packet.OptNOP},
			{Kind: packet.OptTimestamps, Data: zeros[:8]}}
	}
	if fp.WScale >= 0 {
		synOpts = append(synOpts, packet.TCPOption{Kind: packet.OptNOP},
			packet.TCPOption{Kind: packet.OptWindowScale, Data: []byte{byte(fp.WScale)}})
	}

	clientSeq := g.rng.Uint32()
	serverSeq := g.rng.Uint32()

	synFlags := packet.FlagSYN
	if fp.ECN {
		synFlags |= packet.FlagECE | packet.FlagCWR
	}
	syn := packet.TCP{SrcPort: ft.ClientPort, DstPort: ft.ServerPort,
		Seq: clientSeq, Flags: synFlags, Window: fp.Window, Options: synOpts}
	g.appendTCP(ft, 0, true, ttl, &syn, nil)

	synAck := packet.TCP{SrcPort: ft.ServerPort, DstPort: ft.ClientPort,
		Seq: serverSeq, Ack: clientSeq + 1, Flags: packet.FlagSYN | packet.FlagACK,
		Window: 65160, Options: synOpts}
	g.appendTCP(ft, 12*time.Millisecond, false, 0, &synAck, nil)

	ack := packet.TCP{SrcPort: ft.ClientPort, DstPort: ft.ServerPort,
		Seq: clientSeq + 1, Ack: serverSeq + 1, Flags: packet.FlagACK,
		Window: fp.Window, Options: dataOpts}
	g.appendTCP(ft, 13*time.Millisecond, true, ttl, &ack, nil)

	chloRecord := fp.Hello.MarshalRecord()
	chlo := packet.TCP{SrcPort: ft.ClientPort, DstPort: ft.ServerPort,
		Seq: clientSeq + 1, Ack: serverSeq + 1, Flags: packet.FlagACK | packet.FlagPSH,
		Window: fp.Window, Options: dataOpts}
	g.appendTCP(ft, 14*time.Millisecond, true, ttl, &chlo, chloRecord)

	// Server flight (ServerHello + encrypted extensions, abstracted).
	sh := packet.TCP{SrcPort: ft.ServerPort, DstPort: ft.ClientPort,
		Seq: serverSeq + 1, Ack: clientSeq + 1 + uint32(len(chloRecord)),
		Flags: packet.FlagACK | packet.FlagPSH, Window: 65160, Options: dataOpts}
	g.appendTCP(ft, 26*time.Millisecond, false, 0, &sh, zeros[:1200])

	// A few representative application-data frames spread over the flow.
	for i, n := 0, spec.PayloadFrames; i < n; i++ {
		size := 1200 + g.rng.IntN(200)
		data := packet.TCP{SrcPort: ft.ServerPort, DstPort: ft.ClientPort,
			Seq: g.rng.Uint32(), Ack: g.rng.Uint32(), Flags: packet.FlagACK,
			Window: 65160}
		g.appendTCP(ft, payloadOffset(spec, i), false, 0, &data, zeros[:size])
	}
}

// payloadOffset spreads the i-th of spec.PayloadFrames over the flow.
func payloadOffset(spec FlowSpec, i int) time.Duration {
	n := spec.PayloadFrames
	return 50*time.Millisecond + time.Duration(float64(spec.Duration)*float64(i+1)/float64(n+1))
}

// appendRandom appends n opaque bytes, one draw each.
func (g *Generator) appendRandom(dst []byte, n int) []byte {
	for ; n > 0; n-- {
		dst = append(dst, byte(g.src.Uint64()))
	}
	return dst
}

// appendLongHeader appends a structurally valid long-header packet of the
// given type and size: readable first byte, version and connection IDs,
// followed by an opaque (random) body. This is exactly what an on-path
// observer can and cannot see of a server flight, a 0-RTT packet or a
// Handshake packet.
func (g *Generator) appendLongHeader(dst []byte, typ uint8, dcid, scid []byte, size int) []byte {
	start := len(dst)
	dst = append(dst, 0xc0|typ<<4|byte(g.rng.UintN(16)))
	dst = append(dst, 0, 0, 0, 1) // version 1
	dst = append(dst, byte(len(dcid)))
	dst = append(dst, dcid...)
	dst = append(dst, byte(len(scid)))
	dst = append(dst, scid...)
	return g.appendRandom(dst, size-(len(dst)-start))
}

// appendShortHeader appends a 1-RTT short-header packet of the given size:
// fixed bit, random spin/key bits, the destination CID (whose length is not
// on the wire), and an opaque body.
func (g *Generator) appendShortHeader(dst, dcid []byte, size int) []byte {
	start := len(dst)
	dst = append(dst, 0x40|byte(g.rng.UintN(0x40)))
	dst = append(dst, dcid...)
	return g.appendRandom(dst, size-(len(dst)-start))
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
	serverCID := g.appendRandom(make([]byte, 0, 8), 8)
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

	client := netip.AddrPortFrom(ft.ClientAddr, ft.ClientPort)
	migrated := netip.AddrPortFrom(ft.MigratedAddr, ft.MigratedPort)
	hello := fp.Hello.Marshal()
	// sendInitial seals client Initial pn, carrying hello[off:end] in one
	// CRYPTO frame, and sends it from the given client tuple.
	sendInitial := func(off time.Duration, from netip.AddrPort, pn uint64, start, end, minSize int) error {
		in := quicproto.Initial{Version: quicproto.Version1, DCID: fp.DCID, SCID: fp.SCID, PacketNumber: pn,
			Crypto: []quicproto.CryptoFrame{{Offset: uint64(start), Data: hello[start:end]}}}
		buf, err := g.sealer.Seal(&in, newFrame(ft, max(minSize, quicproto.MinInitialSize)), minSize)
		if err != nil {
			return fmt.Errorf("tracegen: sealing initial: %w", err)
		}
		g.appendFrame(ft, off, true, ttl, from, buf)
		return nil
	}
	splitHandshake := ft.Migrated && spec.MigrateMidHandshake
	if splitHandshake {
		// Hello split across two Initials; the path changes between them,
		// so the second CRYPTO fragment arrives from the migrated tuple and
		// only the connection IDs tie the halves together.
		k := len(hello) / 2
		if err := sendInitial(0, client, 0, 0, k, 0); err != nil {
			return err
		}
		if err := sendInitial(2*time.Millisecond, migrated, 1, k, len(hello), 0); err != nil {
			return err
		}
	} else if err := sendInitial(0, client, 0, 0, len(hello), fp.QUICTargetSize); err != nil {
		return err
	}

	// Server Initial+Handshake flight: opaque body behind a readable
	// long-header prefix that echoes the client's SCID and announces the
	// server's CID. The server replies to wherever the handshake finished —
	// on a split handshake the migrated tuple, port included.
	respTo := client
	if splitHandshake {
		respTo = migrated
	}
	resp := g.appendLongHeader(newFrame(ft, 1200), quicproto.TypeHandshake, fp.SCID, serverCID, 1200)
	g.appendFrame(ft, 14*time.Millisecond, false, 0, respTo, resp)

	if ft.Migrated && !splitHandshake {
		// Mid-stream migration: the first packet on the new path is a
		// client short header carrying the server's CID — the only wire
		// evidence linking the tuples.
		seg := g.appendShortHeader(newFrame(ft, 160), serverCID, 160)
		g.appendFrame(ft, 40*time.Millisecond, true, ttl, migrated, seg)
	}

	g.renderPayloadQUIC(ft, fp.SCID, spec)
	return nil
}

// renderQUICZeroRTT renders a session-resumption flow: the client sends
// 0-RTT early-data packets under keys from a previous session, so no
// ClientHello ever crosses the tap. Everything past the long-header CIDs is
// opaque.
func (g *Generator) renderQUICZeroRTT(ft *FlowTrace, fp *fingerprint.Flow, serverCID []byte, ttl uint8, spec FlowSpec) error {
	client := netip.AddrPortFrom(ft.ClientAddr, ft.ClientPort)
	for i := 0; i < 2; i++ {
		early := g.appendLongHeader(newFrame(ft, fp.QUICTargetSize), quicproto.Type0RTT, fp.DCID, fp.SCID, fp.QUICTargetSize)
		g.appendFrame(ft, time.Duration(i)*time.Millisecond, true, ttl, client, early)
	}

	resp := g.appendLongHeader(newFrame(ft, 1200), quicproto.TypeHandshake, fp.SCID, serverCID, 1200)
	g.appendFrame(ft, 14*time.Millisecond, false, 0, client, resp)

	// The client's switch to short headers confirms no fresh handshake is
	// coming: the resumption either completed or was rejected, and either
	// way the tap never saw a hello.
	seg := g.appendShortHeader(newFrame(ft, 160), serverCID, 160)
	if ft.Migrated {
		g.appendFrame(ft, 40*time.Millisecond, true, ttl, netip.AddrPortFrom(ft.MigratedAddr, ft.MigratedPort), seg)
	} else {
		g.appendFrame(ft, 16*time.Millisecond, true, ttl, client, seg)
	}

	g.renderPayloadQUIC(ft, fp.SCID, spec)
	return nil
}

// renderPayloadQUIC adds representative server→client short-header frames
// carrying the client's CID as destination. On migrated flows the frames
// follow the client to its post-migration tuple.
func (g *Generator) renderPayloadQUIC(ft *FlowTrace, clientCID []byte, spec FlowSpec) {
	to := netip.AddrPortFrom(ft.ClientAddr, ft.ClientPort)
	if ft.Migrated {
		to = netip.AddrPortFrom(ft.MigratedAddr, ft.MigratedPort)
	}
	for i := 0; i < spec.PayloadFrames; i++ {
		size := 1200 + g.rng.IntN(200)
		body := g.appendShortHeader(newFrame(ft, size), clientCID, size)
		g.appendFrame(ft, payloadOffset(spec, i), false, 0, to, body)
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
