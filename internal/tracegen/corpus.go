package tracegen

import (
	"math/rand/v2"
	"net/netip"
	"time"

	"videoplat/internal/fingerprint"
	"videoplat/internal/packet"
	"videoplat/internal/tlsproto"
)

// Corpus renders the scenario corpus, one flow of each kind a tap must
// decide, starting 2 s apart from 2024-03-01 20:00 UTC: an open-set flow per
// supported (platform, provider, transport) (OpenSetDataset(1), seed 78);
// then from seed 77, each 20 s long with three payload frames, ECH over TCP
// to Netflix and Amazon and over QUIC to YouTube, QUIC 0-RTT confirmed and
// cut after its early data, TCP 0-RTT, and QUIC migration mid-stream and
// mid-handshake; then OversizedFlow, NotVideoFlow and HelloLessFlow from
// 192.168.9.1, .2 and .3. Each call renders fresh frames the caller owns. It
// panics only if the fingerprint profiles stop serving a flow it names.
func Corpus() []*FlowTrace {
	open, err := New(78).OpenSetDataset(1)
	must(err)
	flows := open.Flows
	g := New(77)
	render := func(label string, prov fingerprint.Provider, tr fingerprint.Transport, spec FlowSpec) *FlowTrace {
		spec.Duration, spec.PayloadFrames = 20*time.Second, 3
		ft, err := g.Flow(label, prov, tr, spec)
		must(err)
		flows = append(flows, ft)
		return ft
	}
	ech := FlowSpec{Options: fingerprint.Options{ECH: true}}
	zeroRTT := FlowSpec{Options: fingerprint.Options{ZeroRTT: true}}
	for _, prov := range []fingerprint.Provider{fingerprint.Netflix, fingerprint.Amazon} {
		render("windows_chrome", prov, fingerprint.TCP, ech)
	}
	render("android_chrome", fingerprint.YouTube, fingerprint.QUIC, ech)
	render("android_chrome", fingerprint.YouTube, fingerprint.QUIC, zeroRTT)
	cut := render("iOS_chrome", fingerprint.YouTube, fingerprint.QUIC, zeroRTT)
	cut.Frames = cut.Frames[:2] // early data only: the short-header confirmation never arrives
	render("macOS_safari", fingerprint.Netflix, fingerprint.TCP, zeroRTT)
	for _, mid := range []bool{false, true} {
		render("android_chrome", fingerprint.YouTube, fingerprint.QUIC,
			FlowSpec{Options: fingerprint.Options{Migration: true}, MigrateMidHandshake: mid})
	}
	host := func(b byte) netip.Addr { return netip.AddrFrom4([4]byte{192, 168, 9, b}) }
	flows = append(flows, g.OversizedFlow(host(1)), g.NotVideoFlow(host(2)), g.HelloLessFlow(host(3)))

	base := time.Date(2024, 3, 1, 20, 0, 0, 0, time.UTC)
	for i, ft := range flows {
		ft.Start = base.Add(time.Duration(i) * 2 * time.Second)
	}
	return flows
}

// must panics on an error that only a fingerprint profile change can cause.
func must(err error) {
	if err != nil {
		panic(err)
	}
}

// handFlow renders a flow no fingerprint renders, a TCP flow from
// client:50000 to Amazon's server address on 443 with no platform label: a
// SYN when syn is set, then one client segment per payload, a bare ACK when
// it is empty, 10 ms apart. The client stream starts at ISN 0xffff_fff0, so
// more than 15 bytes of it wrap the sequence space, and client frames are
// seen with TTL 62. Each frame goes through appendTCP, so it owns its buffer
// and its IP ID is the generator's draw.
func (g *Generator) handFlow(client netip.Addr, syn bool, payloads ...[]byte) *FlowTrace {
	ft := &FlowTrace{Provider: fingerprint.Amazon, Transport: fingerprint.TCP, Start: renderEpoch,
		ClientAddr: client, ServerAddr: serverAddrFor(fingerprint.Amazon), ClientPort: 50000, ServerPort: 443}
	seq := uint32(0xffff_fff0)
	if syn {
		payloads = append([][]byte{nil}, payloads...)
	}
	for i, p := range payloads {
		t := packet.TCP{SrcPort: ft.ClientPort, DstPort: ft.ServerPort, Seq: seq, Flags: packet.FlagACK, Window: 65535}
		if syn && i == 0 {
			t.Flags = packet.FlagSYN
			seq++ // the SYN takes a sequence number
		} else if len(p) > 0 {
			t.Flags |= packet.FlagPSH
		}
		seq += uint32(len(p))
		g.appendTCP(ft, time.Duration(i)*10*time.Millisecond, true, 62, &t, p)
	}
	return ft
}

// handHello is the hello of label's TCP flow to prov drawn first from a
// fixed source, whatever the generator's seed.
func handHello(label string, prov fingerprint.Provider) *tlsproto.ClientHello {
	fp, err := fingerprint.Generate(rand.New(rand.NewPCG(1, 1)), label, prov, fingerprint.TCP, fingerprint.Options{})
	must(err)
	return fp.Hello
}

// OversizedFlow is a hand-built flow whose client opens a handshake record
// 16,383 bytes long and never finishes it: a SYN, then two 600-byte
// segments. A tap holding at most 1,024 bytes of a hello gives up on it.
func (g *Generator) OversizedFlow(client netip.Addr) *FlowTrace {
	var head [600]byte
	copy(head[:], []byte{22, 0x03, 0x01, 0x3f, 0xff}) // handshake record, legacy version, length
	return g.handFlow(client, true, head[:], zeros[:600])
}

// NotVideoFlow is a hand-built flow whose Windows Firefox hello names a host
// no video provider serves, www.example.org: a SYN, the hello and a
// 900-byte server reply, which carries no sequence number.
func (g *Generator) NotVideoFlow(client netip.Addr) *FlowTrace {
	hello := handHello("windows_firefox", fingerprint.Netflix)
	for i := range hello.Extensions {
		if hello.Extensions[i].Type == tlsproto.ExtServerName {
			hello.Extensions[i].Data = tlsproto.ServerNameData("www.example.org")
		}
	}
	ft := g.handFlow(client, true, hello.MarshalRecord())
	ft.SNI = "www.example.org"
	reply := packet.TCP{SrcPort: ft.ServerPort, DstPort: ft.ClientPort, Flags: packet.FlagACK, Window: 65535}
	g.appendTCP(ft, 20*time.Millisecond, false, 0, &reply, zeros[:900])
	return ft
}

// HelloLessFlow is a hand-built flow of ten bare client ACKs, no SYN and no
// hello: a flow the tap joined after its handshake.
func (g *Generator) HelloLessFlow(client netip.Addr) *FlowTrace {
	return g.handFlow(client, false, make([][]byte, 10)...)
}

// CutHelloFlow is a hand-built flow cut mid-hello: a SYN, then the first
// half of a macOS Safari hello record for Amazon, whose rest never comes.
func (g *Generator) CutHelloFlow(client netip.Addr) *FlowTrace {
	rec := handHello("macOS_safari", fingerprint.Amazon).MarshalRecord()
	return g.handFlow(client, true, rec[:len(rec)/2])
}

// TwoRecordHelloFlow is a hand-built flow whose Windows Firefox hello for
// Disney+ is split at its middle byte over two TLS handshake records: a SYN,
// then the records in two segments cut at their 100th byte.
func (g *Generator) TwoRecordHelloFlow(client netip.Addr) *FlowTrace {
	msg := handHello("windows_firefox", fingerprint.Disney).Marshal()
	var records []byte
	for _, part := range [][]byte{msg[:len(msg)/2], msg[len(msg)/2:]} {
		records = append(records, 22, 3, 1, byte(len(part)>>8), byte(len(part)))
		records = append(records, part...)
	}
	return g.handFlow(client, true, records[:100], records[100:])
}

// Replay returns the traces' frames as one stream, each stamped at its
// trace's Start plus its offset and merged by time: ties keep trace order,
// then frame order. It renders nothing, and a packet's Data is the frame's
// own buffer. Written to a capture or handed to the daemon as its source,
// it replays fixed traces, the Corpus among them.
func Replay(traces []*FlowTrace) *Stream {
	return &Stream{queue: timeOrdered(traces), flows: len(traces)}
}
