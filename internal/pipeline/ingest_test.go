package pipeline

import (
	"net/netip"
	"sync"
	"testing"
	"time"

	"videoplat/internal/features"
	"videoplat/internal/fingerprint"
	"videoplat/internal/flowtable"
	"videoplat/internal/obs"
	"videoplat/internal/packet"
	"videoplat/internal/quicproto"
	"videoplat/internal/tracegen"
)

// tcpFrame builds a minimal decodable Ethernet/IPv4/TCP frame for the given
// ports — enough for the ingest path to extract a 5-tuple and route it.
func tcpFrame(t *testing.T, srcPort, dstPort uint16) []byte {
	t.Helper()
	src := netip.AddrPortFrom(netip.MustParseAddr("10.1.2.3"), srcPort)
	dst := netip.AddrPortFrom(netip.MustParseAddr("93.184.216.34"), dstPort)
	return craftFrame(src, dst, packet.ProtoTCP, packet.FlagACK, nil, 0)
}

// icmpFrame builds a decodable IPv4 frame that is neither TCP nor UDP.
func icmpFrame(t *testing.T) []byte {
	t.Helper()
	ip := packet.IPv4{TTL: 64, Protocol: 1, // ICMP
		Src: netip.MustParseAddr("10.0.0.1"), Dst: netip.MustParseAddr("10.0.0.2")}
	eth := packet.Ethernet{EtherType: packet.EtherTypeIPv4}
	return eth.Append(nil, ip.Append(nil, []byte{8, 0, 0, 0}))
}

// TestIngestDropsUndecodableFrames pins the satellite bugfix: frames that
// fail to parse or are non-TCP/UDP used to land on shard 0 (idx=0
// fallback), skewing its load and wasting a copy + channel send each. They
// must now be dropped at ingest, counted in IngestStats, and reach no shard.
func TestIngestDropsUndecodableFrames(t *testing.T) {
	bank := &Bank{}
	s := NewShardedWithConfig(bank, 4, Config{})
	now := time.Now()

	garbage := [][]byte{
		{1, 2, 3},        // truncated ethernet
		make([]byte, 14), // ethernet with unsupported EtherType 0 — no flow
		icmpFrame(t),     // decodes, but no TCP/UDP 5-tuple
	}
	for _, fr := range garbage {
		s.HandlePacketBatch([]IngestPacket{{TS: now, Data: fr}})
	}
	s.HandlePacketBatch([]IngestPacket{
		{TS: now, Data: garbage[0]},
		{TS: now, Data: icmpFrame(t)},
	})

	// Decodable flows off port 443 are dropped by the ingest-time video
	// filter and counted separately from undecodable frames.
	s.HandlePacketBatch([]IngestPacket{{TS: now, Data: tcpFrame(t, 51000, 8080)}})
	s.HandlePacketBatch([]IngestPacket{{TS: now, Data: tcpFrame(t, 51001, 22)}})

	// Decodable TCP frames across many distinct flows: these must spread
	// over the shards rather than pile onto shard 0.
	const flows = 64
	for i := 0; i < flows; i++ {
		s.HandlePacketBatch([]IngestPacket{{TS: now, Data: tcpFrame(t, uint16(10000+i), 443)}})
	}
	s.Close()

	if got := s.IngestStats().Ignored; got != 5 {
		t.Errorf("IngestStats().Ignored = %d, want 5", got)
	}
	if got := s.IngestStats().Filtered; got != 2 {
		t.Errorf("IngestStats().Filtered = %d, want 2", got)
	}
	var total uint64
	for i, sh := range s.shards {
		n := sh.p.Stats().Packets
		if n == 0 {
			t.Errorf("shard %d saw no packets: undecodable-drop must not starve shards", i)
		}
		total += n
	}
	if total != flows {
		t.Errorf("shards saw %d packets, want %d (ignored frames must reach none)", total, flows)
	}
	if s.shards[0].p.Stats().Packets == flows {
		t.Error("all packets on shard 0: ingest still skews")
	}
}

// craftISN is the client ISN of the TCP frames craftFrame builds.
const craftISN = 0x1234_5678

// craftFrame builds one Ethernet frame between two endpoints — IPv4 or IPv6
// by the addresses' family, TCP with the given flags or UDP — followed by
// trailer bytes of Ethernet padding after the IP datagram. A TCP frame is
// its flow's SYN or the segment that follows it: the SYN at sequence number
// craftISN, anything else at craftISN + 1.
func craftFrame(src, dst netip.AddrPort, proto, tcpFlags uint8, payload []byte, trailer int) []byte {
	var seg []byte
	if proto == packet.ProtoTCP {
		tcp := packet.TCP{SrcPort: src.Port(), DstPort: dst.Port(), Seq: craftISN + 1, Flags: tcpFlags, Window: 64240}
		if tcpFlags&packet.FlagSYN != 0 {
			tcp.Seq = craftISN
		}
		seg = tcp.Append(nil, payload, src.Addr(), dst.Addr())
	} else {
		udp := packet.UDP{SrcPort: src.Port(), DstPort: dst.Port()}
		seg = udp.Append(nil, payload, src.Addr(), dst.Addr())
	}
	var frame []byte
	if src.Addr().Is4() {
		ip := packet.IPv4{TTL: 64, Protocol: proto, Src: src.Addr(), Dst: dst.Addr()}
		eth := packet.Ethernet{EtherType: packet.EtherTypeIPv4}
		frame = eth.Append(nil, ip.Append(nil, seg))
	} else {
		ip := packet.IPv6{HopLimit: 64, Protocol: proto, Src: src.Addr(), Dst: dst.Addr()}
		eth := packet.Ethernet{EtherType: packet.EtherTypeIPv6}
		frame = eth.Append(nil, ip.Append(nil, seg))
	}
	return append(frame, make([]byte, trailer)...)
}

// shortHeader is a QUIC 1-RTT payload of n bytes: the fixed bit, then cid,
// then filler.
func shortHeader(cid []byte, n int) []byte {
	b := append([]byte{0x40}, cid...)
	for len(b) < n {
		b = append(b, byte(len(b)))
	}
	return b
}

// tracePackets is a rendered flow as ingest input, each frame followed by
// trailer bytes of Ethernet padding.
func tracePackets(ft *tracegen.FlowTrace, trailer int) []IngestPacket {
	var out []IngestPacket
	for _, fr := range ft.Frames {
		data := append(append([]byte(nil), fr.Data...), make([]byte, trailer)...)
		out = append(out, IngestPacket{TS: ft.Start.Add(fr.Offset), Data: data})
	}
	return out
}

// replayPackets is tracegen.Replay(traces) as ingest input.
func replayPackets(traces []*tracegen.FlowTrace) []IngestPacket {
	var out []IngestPacket
	for s := tracegen.Replay(traces); ; {
		pkt, err := s.Next()
		if err != nil { // io.EOF: a replay fails no other way
			return out
		}
		out = append(out, IngestPacket{TS: pkt.Timestamp, Data: pkt.Data})
	}
}

// withBulk splices an established flow's traffic into a rendered QUIC flow
// after its first `at` frames: MTU-sized short headers from the server and
// short ones from the client, all on the flow's original tuple.
func withBulk(ft *tracegen.FlowTrace, at int, pkts []IngestPacket) []IngestPacket {
	client := netip.AddrPortFrom(ft.ClientAddr, ft.ClientPort)
	server := netip.AddrPortFrom(ft.ServerAddr, ft.ServerPort)
	ts := pkts[at-1].TS
	var bulk []IngestPacket
	for i := 0; i < 6; i++ {
		ts = ts.Add(time.Millisecond)
		bulk = append(bulk,
			IngestPacket{TS: ts, Data: craftFrame(server, client, packet.ProtoUDP, 0, shortHeader(nil, 1350), 0)},
			IngestPacket{TS: ts, Data: craftFrame(client, server, packet.ProtoUDP, 0, shortHeader([]byte{9, 8, 7, 6, 5, 4, 3, 2}, 22+i), 0)})
	}
	out := append([]IngestPacket(nil), pkts[:at]...)
	out = append(out, bulk...)
	return append(out, pkts[at:]...)
}

// fastOpenPackets rewrites a rendered TCP flow as a TCP Fast Open one: the
// ClientHello rides the SYN, and the client's bare ACK and hello segment are
// gone.
func fastOpenPackets(t *testing.T, ft *tracegen.FlowTrace) []IngestPacket {
	t.Helper()
	f := newHelloFlight(t, ft)
	out := []IngestPacket{{TS: ft.Start, Data: f.fastOpen(len(f.hello)).synFrame()}}
	for _, fr := range ft.Frames {
		if !fr.ClientToServer {
			out = append(out, IngestPacket{TS: ft.Start.Add(fr.Offset), Data: fr.Data})
		}
	}
	return out
}

// interleave merges per-flow packet sequences round-robin, as a tap would
// deliver them; each flow's own order is kept.
func interleave(flows ...[]IngestPacket) []IngestPacket {
	var out []IngestPacket
	for j := 0; ; j++ {
		any := false
		for _, pkts := range flows {
			if j < len(pkts) {
				out = append(out, pkts[j])
				any = true
			}
		}
		if !any {
			return out
		}
	}
}

// TestBatchedMatchesSinglePacket is the entry-point equivalence check: every
// entry point — plain Pipeline.HandlePacket and Sharded.HandlePacketBatch
// at several batch sizes, one frame a batch among them — must produce exactly
// the same terminal record per flow: same SNIs, verdicts, predictions, byte
// and packet telemetry, and the same per-verdict counts. Terminal records
// are OnEvict's plus Flows(). The handshake-then-bulk input is the check on
// what Sharded's ingest leaves out of its arenas (keepLen): every frame it
// cuts, and every reader of a cut payload, is in it.
//
// It is also the check on copy-on-retain. Every entry point is fed through a
// frameLender, which overwrites the frames the moment the call returns, and
// the interleaved and bulk inputs carry a flow whose ClientHello spans three
// segments (splitHelloPackets): an assembler that kept a pointer into its
// first segment reads poison on a Pipeline, and on a Sharded at batch size 1
// an arena that has carried other frames since. Each entry point must bring
// every flow to a classification outcome on its own, so a retention bug
// shows on the path it is on and not only as a difference between two.
func TestBatchedMatchesSinglePacket(t *testing.T) {
	if testing.Short() {
		t.Skip("bank training is slow")
	}
	bank, _ := trainSmallBank(t, 31, 0.02)

	g := tracegen.New(77)
	render := func(label string, prov fingerprint.Provider, tr fingerprint.Transport, opts fingerprint.Options) *tracegen.FlowTrace {
		ft, err := g.Flow(label, prov, tr, tracegen.FlowSpec{Options: opts, PayloadFrames: 3})
		if err != nil {
			t.Fatal(err)
		}
		return ft
	}
	var all []*tracegen.FlowTrace
	specs := []struct {
		label string
		prov  fingerprint.Provider
		tr    fingerprint.Transport
	}{
		{"windows_chrome", fingerprint.YouTube, fingerprint.QUIC},
		{"windows_firefox", fingerprint.Netflix, fingerprint.TCP},
		{"iOS_nativeApp", fingerprint.Disney, fingerprint.TCP},
		{"androidTV_nativeApp", fingerprint.Amazon, fingerprint.TCP},
		{"macOS_safari", fingerprint.Amazon, fingerprint.TCP},
		{"ps5_nativeApp", fingerprint.Netflix, fingerprint.TCP},
	}
	var perFlow [][]IngestPacket
	for _, sp := range specs {
		ft := render(sp.label, sp.prov, sp.tr, fingerprint.Options{})
		all = append(all, ft)
		perFlow = append(perFlow, tracePackets(ft, 0))
	}
	splitHello, _ := splitHelloPackets(t, all[0].Start)
	perFlow = append(perFlow, splitHello)
	// Cap pressure: flow A runs to its verdict, then flow B arrives and
	// evicts it from a one-flow table — within one ingest batch when the
	// batch is large enough.
	capPressure := append(tracePackets(all[1], 0), tracePackets(all[2], 0)...)

	// Handshake, then the traffic of an established flow. MTU-sized server
	// TCP segments (the rendered payload frames); short headers of 22 bytes
	// and up in both directions; two migrations whose first packet on the new
	// tuple is a short header arriving after bulk, so the CID lookup that
	// re-keys the flow runs on a cut payload — one client with a 3-byte
	// connection ID, one with none (Chrome), whose post-migration server
	// frames carry no ID at all; a TCP Fast Open SYN carrying the hello; and a
	// TCP flow whose every frame, SYN included, ends in Ethernet padding.
	migration := fingerprint.Options{Migration: true}
	quic := render("macOS_safari", fingerprint.YouTube, fingerprint.QUIC, fingerprint.Options{})
	migCID := render("windows_firefox", fingerprint.YouTube, fingerprint.QUIC, migration)
	migNoCID := render("windows_chrome", fingerprint.YouTube, fingerprint.QUIC, migration)
	bulk := interleave(
		tracePackets(render("windows_firefox", fingerprint.Netflix, fingerprint.TCP, fingerprint.Options{}), 0),
		withBulk(quic, 2, tracePackets(quic, 0)),
		withBulk(migCID, 2, tracePackets(migCID, 0)),
		withBulk(migNoCID, 2, tracePackets(migNoCID, 0)),
		fastOpenPackets(t, render("ps5_nativeApp", fingerprint.Amazon, fingerprint.TCP, fingerprint.Options{})),
		tracePackets(render("iOS_nativeApp", fingerprint.Disney, fingerprint.TCP, fingerprint.Options{}), 6),
		splitHello,
	)

	type summary struct {
		sni        string
		verdict    Verdict
		platform   string
		status     Status
		classified bool
		bytesDown  int64
		bytesUp    int64
		pktsDown   int
		pktsUp     int
		initSize   int // HandshakeInfo.InitPacketSize, as OnClassify saw it
	}
	type outcome struct {
		flows      map[packet.FlowKey]summary
		verdicts   [NumVerdicts]uint64
		migrations uint64
	}
	for _, in := range []struct {
		name       string
		shards     int
		cfg        Config
		pkts       []IngestPacket
		flows      int
		migrations uint64
	}{
		{"interleaved", 4, Config{}, interleave(perFlow...), len(perFlow), 0},
		{"cap-pressure", 1, Config{MaxFlows: 1}, capPressure, 2, 0},
		{"handshake-then-bulk", 4, Config{}, bulk, 7, 2},
	} {
		// run replays the input through one entry point: batchSize < 0 is
		// the plain Pipeline, 0 is Sharded.HandlePacketBatch of one frame on
		// a recycled arena, anything else a Sharded.HandlePacketBatch size.
		run := func(batchSize int) outcome {
			var mu sync.Mutex
			out := outcome{flows: map[packet.FlowKey]summary{}}
			initSize := map[packet.FlowKey]int{}
			record := func(rec *FlowRecord) {
				mu.Lock()
				defer mu.Unlock()
				if _, dup := out.flows[rec.Key]; dup {
					t.Errorf("%s batch=%d: flow %s has two terminal records", in.name, batchSize, rec.SNI)
				}
				if rec.Verdict != VerdictClassified && rec.Verdict != VerdictAbstained {
					t.Errorf("%s batch=%d: flow %q (%v) verdict = %s, want a classification outcome", in.name, batchSize, rec.SNI, rec.Key, rec.Verdict)
				}
				if initSize[rec.Key] == 0 {
					t.Errorf("%s batch=%d: flow %q (%v) was classified with no InitPacketSize", in.name, batchSize, rec.SNI, rec.Key)
				}
				out.flows[rec.Key] = summary{
					sni:        rec.SNI,
					verdict:    rec.Verdict,
					platform:   rec.Prediction.Platform,
					status:     rec.Prediction.Status,
					classified: rec.Verdict.ClassifierRan(),
					bytesDown:  rec.BytesDown,
					bytesUp:    rec.BytesUp,
					pktsDown:   rec.PacketsDown,
					pktsUp:     rec.PacketsUp,
					initSize:   initSize[rec.Key],
				}
			}
			cfg := in.cfg
			cfg.OnEvict = func(rec *FlowRecord, _ flowtable.Reason) { record(rec) }
			cfg.OnClassify = func(rec *FlowRecord, hs *features.HandshakeInfo) {
				mu.Lock()
				defer mu.Unlock()
				initSize[rec.Key] = hs.InitPacketSize
			}
			var lender frameLender
			if batchSize < 0 {
				p := NewWithConfig(bank, cfg)
				lender.each(in.pkts, func(ts time.Time, frame []byte) {
					if _, err := p.HandlePacket(ts, frame); err != nil {
						t.Fatal(err)
					}
				})
				for _, rec := range p.Flows() {
					record(rec)
				}
				st := p.Stats()
				out.verdicts, out.migrations = st.Verdicts, p.TableStats().Rekeyed
				return out
			}
			s := NewShardedWithConfig(bank, in.shards, cfg)
			go func() {
				for range s.Results() {
				}
			}()
			if batchSize == 0 {
				lender.eachRecycled(s, in.pkts)
			} else {
				for off := 0; off < len(in.pkts); off += batchSize {
					lender.batch(in.pkts[off:min(off+batchSize, len(in.pkts))], s.HandlePacketBatch)
				}
			}
			s.Close()
			for _, rec := range s.Flows() {
				record(rec)
			}
			for _, sh := range s.shards {
				st := sh.p.Stats()
				for v, n := range st.Verdicts {
					out.verdicts[v] += n
				}
				out.migrations += sh.p.TableStats().Rekeyed
			}
			return out
		}

		want := run(-1)
		if len(want.flows) != in.flows {
			t.Fatalf("%s: plain pipeline finalized %d flows, want %d", in.name, len(want.flows), in.flows)
		}
		if want.migrations != in.migrations {
			t.Errorf("%s: plain pipeline re-keyed %d flows, want %d", in.name, want.migrations, in.migrations)
		}
		for _, batchSize := range []int{0, 7, 64, len(in.pkts)} {
			got := run(batchSize)
			if len(got.flows) != len(want.flows) {
				t.Fatalf("%s batch=%d finalized %d flows, plain pipeline %d", in.name, batchSize, len(got.flows), len(want.flows))
			}
			for key, w := range want.flows {
				if have, ok := got.flows[key]; !ok || have != w {
					t.Errorf("%s batch=%d flow %v = %+v, plain pipeline = %+v", in.name, batchSize, key, have, w)
				}
			}
			if got.verdicts != want.verdicts || got.migrations != want.migrations {
				t.Errorf("%s batch=%d: verdict counts %v and %d migrations, plain pipeline %v and %d",
					in.name, batchSize, got.verdicts, got.migrations, want.verdicts, want.migrations)
			}
		}
	}
}

// TestKeepRule pins, frame kind by frame kind, how much of a frame ingest
// packs for the shard (keepLen) and where it says the payload starts: whole
// frames for everything handshake assembly or CID learning can read, the
// headers alone for a TCP segment from the :443 side, and the flags byte
// plus the longest connection ID for a short header.
func TestKeepRule(t *testing.T) {
	var (
		client  = netip.MustParseAddrPort("192.168.1.7:50000")
		server  = netip.MustParseAddrPort("203.0.113.10:443")
		peer443 = netip.MustParseAddrPort("192.168.1.7:443")
		client6 = netip.MustParseAddrPort("[2001:db8::7]:50000")
		server6 = netip.MustParseAddrPort("[2001:db8::10]:443")
	)
	const (
		eth, ip4, ip6, tcp, udp = 14, 20, 40, 20, 8
		whole                   = -1
	)
	longHeader := func(typ uint8, n int) []byte {
		b := []byte{0xc0 | typ<<4, 0, 0, 0, 1, 8, 1, 2, 3, 4, 5, 6, 7, 8, 0}
		return append(b, make([]byte, n-len(b))...)
	}
	for _, c := range []struct {
		name       string
		frame      []byte
		kept       int // bytes packed; whole = the frame, trailer included
		payloadOff int
	}{
		{"SYN", craftFrame(client, server, packet.ProtoTCP, packet.FlagSYN, nil, 0), whole, eth + ip4 + tcp},
		{"SYN, padded to the Ethernet minimum", craftFrame(client, server, packet.ProtoTCP, packet.FlagSYN, nil, 6), whole, eth + ip4 + tcp},
		{"client data", craftFrame(client, server, packet.ProtoTCP, packet.FlagACK, make([]byte, 517), 0), whole, eth + ip4 + tcp},
		{"server data", craftFrame(server, client, packet.ProtoTCP, packet.FlagACK, make([]byte, 1400), 0), eth + ip4 + tcp, eth + ip4 + tcp},
		{"server data with a trailer", craftFrame(server, client, packet.ProtoTCP, packet.FlagACK, make([]byte, 1400), 4), eth + ip4 + tcp, eth + ip4 + tcp},
		{"bare server ACK", craftFrame(server, client, packet.ProtoTCP, packet.FlagACK, nil, 0), eth + ip4 + tcp, eth + ip4 + tcp},
		{"both ports 443", craftFrame(server, peer443, packet.ProtoTCP, packet.FlagACK, make([]byte, 1400), 0), whole, eth + ip4 + tcp},
		{"short header of 21 bytes", craftFrame(server, client, packet.ProtoUDP, 0, shortHeader(nil, 21), 0), whole, eth + ip4 + udp},
		{"short header of 22 bytes", craftFrame(server, client, packet.ProtoUDP, 0, shortHeader(nil, 22), 0), eth + ip4 + udp + 21, eth + ip4 + udp},
		{"client short header", craftFrame(client, server, packet.ProtoUDP, 0, shortHeader(nil, 1350), 0), eth + ip4 + udp + 21, eth + ip4 + udp},
		{"short header with a trailer", craftFrame(client, server, packet.ProtoUDP, 0, shortHeader(nil, 1350), 4), eth + ip4 + udp + 21, eth + ip4 + udp},
		{"long header (Initial)", craftFrame(client, server, packet.ProtoUDP, 0, longHeader(quicproto.TypeInitial, 1250), 0), whole, eth + ip4 + udp},
		{"long header (server Handshake)", craftFrame(server, client, packet.ProtoUDP, 0, longHeader(quicproto.TypeHandshake, 1200), 0), whole, eth + ip4 + udp},
		{"0-RTT", craftFrame(client, server, packet.ProtoUDP, 0, longHeader(quicproto.Type0RTT, 1250), 0), whole, eth + ip4 + udp},
		{"IPv6 client data", craftFrame(client6, server6, packet.ProtoTCP, packet.FlagACK, make([]byte, 517), 0), whole, eth + ip6 + tcp},
		{"IPv6 server data", craftFrame(server6, client6, packet.ProtoTCP, packet.FlagACK, make([]byte, 1400), 0), eth + ip6 + tcp, eth + ip6 + tcp},
		{"IPv6 short header", craftFrame(server6, client6, packet.ProtoUDP, 0, shortHeader(nil, 1350), 0), eth + ip6 + udp + 21, eth + ip6 + udp},
	} {
		s := NewShardedWithConfig(emptyBank(), 1, Config{})
		s.decode(time.Time{}, c.frame)
		b := s.pending[0]
		if b == nil || len(b.frames) != 1 {
			t.Fatalf("%s: decode packed no frame", c.name)
		}
		f := b.frames[0]
		want := c.kept
		if want == whole {
			want = len(c.frame)
		}
		if got := int(f.end - f.off); got != want || len(b.arena) != want {
			t.Errorf("%s: kept %d of %d bytes (arena %d), want %d", c.name, got, len(c.frame), len(b.arena), want)
		}
		if int(f.payloadOff) != c.payloadOff {
			t.Errorf("%s: payload offset %d, want %d", c.name, f.payloadOff, c.payloadOff)
		}
		var parsed packet.Parsed
		if err := new(packet.Parser).Parse(c.frame, &parsed); err != nil || int(f.payloadLen) != len(parsed.Payload) {
			t.Errorf("%s: payload length %d, the decode says %d (err %v)", c.name, f.payloadLen, len(parsed.Payload), err)
		}
		s.Close()
	}
}

// TestBatchArenaBound pins maxBatchArena: a HandlePacketBatch call far
// larger than one arena may hold is shipped as several batches, none over
// the bound, and every frame still reaches the shard.
func TestBatchArenaBound(t *testing.T) {
	client := netip.MustParseAddrPort("192.168.1.7:50000")
	server := netip.MustParseAddrPort("203.0.113.10:443")
	frame := craftFrame(client, server, packet.ProtoTCP, packet.FlagACK, make([]byte, 1400), 0)
	n := 3*maxBatchArena/len(frame) + 1
	s := NewShardedWithConfig(emptyBank(), 1, Config{})
	for i := 0; i < n; i++ {
		s.decode(time.Time{}, frame)
		if got := len(s.pending[0].arena); got > maxBatchArena {
			t.Fatalf("after %d frames the pending arena holds %d bytes, over the %d bound", i+1, got, maxBatchArena)
		}
	}
	s.HandlePacketBatch(nil) // ships what is still pending
	s.Close()
	if got := s.shards[0].p.Stats().Packets; got != uint64(n) {
		t.Errorf("the shard saw %d packets, want %d", got, n)
	}
}

// decidedBatch is 64 frames of established-flow traffic over 16 flows, TCP
// and QUIC, server bulk and client acks: nine client frames in, every flow
// is no-handshake, so from then on the batch is all decided-flow traffic.
func decidedBatch() []IngestPacket {
	server := netip.MustParseAddrPort("203.0.113.10:443")
	var pkts []IngestPacket
	now := time.Now()
	for i := 0; i < 64; i++ {
		client := netip.AddrPortFrom(netip.MustParseAddr("192.168.1.7"), uint16(50000+i/4))
		var frame []byte
		switch i % 4 {
		case 0:
			frame = craftFrame(server, client, packet.ProtoTCP, packet.FlagACK, make([]byte, 1400), 0)
		case 1:
			frame = craftFrame(client, server, packet.ProtoTCP, packet.FlagACK, nil, 0)
		case 2:
			frame = craftFrame(server, client, packet.ProtoUDP, 0, shortHeader(nil, 1350), 0)
		case 3:
			frame = craftFrame(client, server, packet.ProtoUDP, 0, shortHeader([]byte{1, 2, 3, 4, 5, 6, 7, 8}, 40), 0)
		}
		pkts = append(pkts, IngestPacket{TS: now, Data: frame})
	}
	return pkts
}

// TestHandlePacketBatchZeroAlloc pins the steady state of the whole ingest
// hand-off — decode, route, pack, queue, and the shard worker's replay: with
// pools warm and every flow decided, a 64-frame batch allocates nothing on
// either side of the queue, bare or with an observer and a sample-every-flow
// tracer attached. The inboxes are one deep so that only a handful of
// batches can be in flight at once: the pool then holds them all after the
// warm-up, where a deep inbox would let ingest run ahead of the workers and
// draw fresh batches for as long as the queue keeps growing.
func TestHandlePacketBatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a quarter of what it is handed")
	}
	pkts := decidedBatch()
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"bare", Config{inboxDepth: 1}},
		{"observed", Config{inboxDepth: 1, Observer: obs.NewPipelineObserver(), Tracer: obs.NewTracer(obs.TracerConfig{SampleEvery: 1})}},
	} {
		s := NewShardedWithConfig(emptyBank(), 2, c.cfg)
		go func() {
			for range s.Results() {
			}
		}()
		for i := 0; i < 512; i++ {
			s.HandlePacketBatch(pkts)
		}
		allocs := testing.AllocsPerRun(500, func() { s.HandlePacketBatch(pkts) })
		s.Close()
		if allocs != 0 {
			t.Errorf("%s: a steady-state 64-frame batch allocates %.1f times, want 0", c.name, allocs)
		}
		for _, rec := range s.Flows() {
			if rec.Verdict != VerdictNoHandshake {
				t.Fatalf("%s: flow %v is %s: the batches were not all decided-flow traffic", c.name, rec.Key, rec.Verdict)
			}
		}
		if c.cfg.Observer != nil && c.cfg.Observer.Stage(obs.StageDecode).Snapshot().Count == 0 {
			t.Errorf("%s: the observer recorded no decode samples", c.name)
		}
	}
}

// BenchmarkHandlePacketBatch is the cost of ingest instrumentation: the
// decided-flow batch of TestHandlePacketBatchZeroAlloc through a 2-shard
// Sharded, bare and with an observer and tracer attached, in ns/frame.
func BenchmarkHandlePacketBatch(b *testing.B) {
	pkts := decidedBatch()
	for _, c := range []struct {
		name string
		cfg  Config
	}{
		{"bare", Config{}},
		{"observed", Config{Observer: obs.NewPipelineObserver(), Tracer: obs.NewTracer(obs.TracerConfig{})}},
	} {
		b.Run(c.name, func(b *testing.B) {
			s := NewShardedWithConfig(emptyBank(), 2, c.cfg)
			go func() {
				for range s.Results() {
				}
			}()
			for i := 0; i < 16; i++ {
				s.HandlePacketBatch(pkts) // decide every flow before timing
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.HandlePacketBatch(pkts)
			}
			s.Drain() // the workers' share of the batches counts too
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pkts)), "ns/frame")
			s.Close()
		})
	}
}

// TestHandlePacketBatchShortFrames covers the look-ahead prefetch's guard:
// an empty, a 1-byte or a 13-byte frame first in a batch or in any of its
// last three slots — where the look-ahead starts reading, or runs out — is
// counted in Ignored like any frame too short for an Ethernet header, and
// every other frame of the batch still reaches a shard.
func TestHandlePacketBatchShortFrames(t *testing.T) {
	client := netip.MustParseAddrPort("192.168.1.7:50000")
	server := netip.MustParseAddrPort("203.0.113.10:443")
	good := craftFrame(client, server, packet.ProtoTCP, packet.FlagACK, nil, 0)
	for _, n := range []int{1, 2, 3, 8} {
		for _, short := range [][]byte{nil, {}, {0x45}, make([]byte, 13)} {
			for _, pos := range []int{0, n - 3, n - 2, n - 1} {
				if pos < 0 {
					continue
				}
				pkts := make([]IngestPacket, n)
				for i := range pkts {
					pkts[i].Data = good
				}
				pkts[pos].Data = short
				s := NewShardedWithConfig(emptyBank(), 2, Config{})
				s.HandlePacketBatch(pkts)
				s.Close()
				if got := s.IngestStats().Ignored; got != 1 {
					t.Errorf("%d-byte frame at %d of %d: Ignored = %d, want 1", len(short), pos, n, got)
				}
				var seen uint64
				for _, sh := range s.shards {
					seen += sh.p.Stats().Packets
				}
				if seen != uint64(n-1) {
					t.Errorf("%d-byte frame at %d of %d: shards saw %d frames, want %d", len(short), pos, n, seen, n-1)
				}
			}
		}
	}
}

// TestResultsDropUnderStalledConsumer pins the revised best-effort
// contract: the results buffer is configurable (and shard-count-scaled by
// default), and a consumer that stops draining costs exactly the overflow,
// counted in IngestStats.DroppedResults, while Close still never deadlocks.
func TestResultsDropUnderStalledConsumer(t *testing.T) {
	if testing.Short() {
		t.Skip("bank training is slow")
	}
	bank, _ := trainSmallBank(t, 31, 0.02)

	const buffer = 2
	s := NewShardedWithConfig(bank, 1, Config{ResultsBuffer: buffer})
	g := tracegen.New(99)
	labels := []string{"windows_chrome", "windows_firefox", "iOS_nativeApp",
		"macOS_safari", "ps5_nativeApp", "androidTV_nativeApp"}
	for i, label := range labels {
		prov := fingerprint.AllProviders()[i%4]
		if !fingerprint.SupportMatrix(label, prov) {
			prov = fingerprint.Netflix
		}
		tr := fingerprint.TCP
		if !fingerprint.SupportsTCP(label, prov) {
			tr = fingerprint.QUIC
		}
		ft, err := g.Flow(label, prov, tr, tracegen.FlowSpec{PayloadFrames: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, fr := range ft.Frames {
			s.HandlePacketBatch([]IngestPacket{{TS: ft.Start.Add(fr.Offset), Data: fr.Data}})
		}
	}
	s.Close() // nobody drained Results; Close must not deadlock

	buffered := len(s.results)
	if buffered != buffer {
		t.Errorf("buffered results = %d, want full buffer %d", buffered, buffer)
	}
	want := uint64(len(labels) - buffer)
	if got := s.IngestStats(); got.DroppedResults != want || got.Ignored != 0 {
		t.Errorf("IngestStats() = %+v, want %d dropped results (%d flows, buffer %d) and nothing ignored",
			got, want, len(labels), buffer)
	}
}

// TestUndrainedResultsAllocateNothing pins what a classified flow costs when
// nobody reads Results, as in the daemon: its record is copied to the heap
// only for a channel with room, so a dropped record allocates nothing. The
// same classified flows, one ClientHello segment each on a fresh client
// address, go through two one-shard Shardeds that nobody drains: one whose
// channel has room for every record and one whose single slot the first
// record fills. Every flow costs the second exactly one allocation less, the
// record it never delivered.
func TestUndrainedResultsAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops a quarter of what it is handed")
	}
	bank := platformBank(t, "windows_chrome", fingerprint.TCP, "")
	ft, err := tracegen.New(62).Flow("windows_chrome", fingerprint.YouTube, fingerprint.TCP, tracegen.FlowSpec{})
	if err != nil {
		t.Fatal(err)
	}
	const (
		perBatch = 64
		warm     = 16
		runs     = 50
		flows    = (warm + 1 + runs) * perBatch // AllocsPerRun calls once more to warm up
	)
	hello := ft.Frames[3].Data // the ClientHello segment
	perFlow := func(buffer int) (allocs float64, st IngestStats) {
		s := NewShardedWithConfig(bank, 1, Config{MaxFlows: 4 * perBatch, ResultsBuffer: buffer})
		pkts := make([]IngestPacket, perBatch)
		for i := range pkts {
			pkts[i] = IngestPacket{TS: ft.Start, Data: append([]byte(nil), hello...)}
		}
		n := 0
		batch := func() {
			for i := range pkts {
				client := pkts[i].Data[26:30] // its IPv4 source
				client[0], client[1], client[2], client[3] = 10+byte(n>>24), byte(n>>16), byte(n>>8), byte(n)
				n++
			}
			s.HandlePacketBatch(pkts)
			s.onEachShard(func(int, *Pipeline) {}) // wait for the worker
		}
		for i := 0; i < warm; i++ {
			batch()
		}
		allocs = testing.AllocsPerRun(runs, batch) / perBatch
		s.Close()
		return allocs, s.IngestStats()
	}
	room, roomSt := perFlow(flows)
	full, fullSt := perFlow(1)
	for _, c := range []struct {
		name    string
		st      IngestStats
		dropped uint64
	}{{"room", roomSt, 0}, {"full", fullSt, flows - 1}} {
		if got := c.st.Verdicts[VerdictClassified]; got != flows {
			t.Fatalf("%s: %d flows classified, want all %d", c.name, got, flows)
		}
		if c.st.DroppedResults != c.dropped {
			t.Errorf("%s: %d results dropped, want %d", c.name, c.st.DroppedResults, c.dropped)
		}
	}
	if d := room - full; d < 0.99 || d > 1.01 {
		t.Errorf("a classified flow allocates %.2f times with room in Results and %.2f with Results full, want exactly one fewer", room, full)
	}
	t.Logf("allocations per classified flow: %.2f delivered, %.2f dropped", room, full)
}

// TestShardedDefaultQueueDepths pins what a default Config serves with: the
// shard-count-scaled results buffer and inboxes of shardQueueDepth.
func TestShardedDefaultQueueDepths(t *testing.T) {
	bank := &Bank{}
	for _, n := range []int{1, 4} {
		s := NewShardedWithConfig(bank, n, Config{})
		if got, want := cap(s.results), DefaultResultsBufferPerShard*n; got != want {
			t.Errorf("n=%d: results buffer = %d, want %d", n, got, want)
		}
		for _, sh := range s.shards {
			if got := cap(sh.in); got != shardQueueDepth {
				t.Errorf("n=%d: shard inbox depth = %d, want %d", n, got, shardQueueDepth)
			}
		}
		s.Close()
	}
	// ResultsBuffer is still an option (bench/lag.go sets it).
	s := NewShardedWithConfig(bank, 2, Config{ResultsBuffer: 5})
	if cap(s.results) != 5 {
		t.Errorf("explicit ResultsBuffer not honoured: results=%d", cap(s.results))
	}
	s.Close()
}

// TestIngestStallCounter drives more batches than a one-slot inbox can hold
// so ingest must block at least once, and the stall is counted.
func TestIngestStallCounter(t *testing.T) {
	bank := &Bank{}
	s := NewShardedWithConfig(bank, 1, Config{inboxDepth: 1})
	now := time.Now()
	for i := 0; i < 2000; i++ {
		s.HandlePacketBatch([]IngestPacket{{TS: now, Data: tcpFrame(t, uint16(1000+i%512), 443)}})
	}
	s.Close()
	if s.IngestStats().Stalls == 0 {
		t.Error("no stalls recorded while flooding a depth-1 inbox")
	}
}
