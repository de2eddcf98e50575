package pipeline

import (
	"math/rand/v2"
	"net/netip"
	"reflect"
	"testing"

	"videoplat/internal/fingerprint"
	"videoplat/internal/packet"
	"videoplat/internal/tracegen"
)

// TestExtractFramesSplitClientHello feeds a ClientHello split across two TCP
// segments, exercising the stream-reassembly path of ExtractFrames.
func TestExtractFramesSplitClientHello(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	f, err := fingerprint.Generate(rng, "macOS_safari", fingerprint.Amazon, fingerprint.TCP, fingerprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	record := f.Hello.MarshalRecord()
	cut := len(record) / 3

	src := netip.MustParseAddr("192.168.1.2")
	dst := netip.MustParseAddr("203.0.113.40")
	const isn = 4000
	mkFrame := func(seq uint32, payload []byte, flags uint8, withOpts bool) []byte {
		tcp := packet.TCP{SrcPort: 50000, DstPort: 443, Seq: seq, Flags: flags, Window: f.Window}
		if withOpts {
			tcp.Options = []packet.TCPOption{
				{Kind: packet.OptMSS, Data: []byte{byte(f.MSS >> 8), byte(f.MSS)}},
				{Kind: packet.OptNOP}, {Kind: packet.OptNOP},
				{Kind: packet.OptSACKPermitted},
				{Kind: packet.OptNOP},
				{Kind: packet.OptWindowScale, Data: []byte{byte(f.WScale)}},
			}
		}
		seg := tcp.Append(nil, payload, src, dst)
		ip := packet.IPv4{TTL: f.TTL - 2, Protocol: packet.ProtoTCP, Src: src, Dst: dst}
		eth := packet.Ethernet{EtherType: packet.EtherTypeIPv4}
		return eth.Append(nil, ip.Append(nil, seg))
	}

	frames := [][]byte{
		mkFrame(isn, nil, packet.FlagSYN|packet.FlagECE|packet.FlagCWR, true),
		mkFrame(isn+1, record[:cut], packet.FlagACK|packet.FlagPSH, false),
		mkFrame(isn+1+uint32(cut), record[cut:], packet.FlagACK|packet.FlagPSH, false),
	}
	info, err := ExtractFrames(frames)
	if err != nil {
		t.Fatal(err)
	}
	if info.Hello.ServerName() != f.SNI {
		t.Errorf("SNI = %q, want %q", info.Hello.ServerName(), f.SNI)
	}
	if info.TCPMSS != f.MSS || info.TCPWScale != f.WScale {
		t.Errorf("TCP opts not recovered: mss=%d wscale=%d", info.TCPMSS, info.TCPWScale)
	}
	if info.TCPFlags&packet.FlagECE == 0 {
		t.Error("ECN flags lost")
	}
}

func TestExtractFramesNoHello(t *testing.T) {
	if _, err := ExtractFrames(nil); err == nil {
		t.Error("empty frames accepted")
	}
	// Frames with only a SYN and application noise must fail with
	// ErrNoHandshake.
	src := netip.MustParseAddr("10.0.0.1")
	dst := netip.MustParseAddr("10.0.0.2")
	tcp := packet.TCP{SrcPort: 1234, DstPort: 443, Flags: packet.FlagSYN}
	seg := tcp.Append(nil, nil, src, dst)
	ip := packet.IPv4{TTL: 64, Protocol: packet.ProtoTCP, Src: src, Dst: dst}
	eth := packet.Ethernet{EtherType: packet.EtherTypeIPv4}
	frame := eth.Append(nil, ip.Append(nil, seg))
	if _, err := ExtractFrames([][]byte{frame}); err == nil {
		t.Error("SYN-only flow should have no hello")
	}
}

func TestExtractFramesSkipsNonHandshakeTCPPayload(t *testing.T) {
	// A flow whose first payload is HTTP (not TLS) must not yield a hello.
	src := netip.MustParseAddr("10.1.1.1")
	dst := netip.MustParseAddr("10.1.1.2")
	tcp := packet.TCP{SrcPort: 1, DstPort: 443, Flags: packet.FlagACK}
	seg := tcp.Append(nil, []byte("GET / HTTP/1.1\r\n"), src, dst)
	ip := packet.IPv4{TTL: 64, Protocol: packet.ProtoTCP, Src: src, Dst: dst}
	eth := packet.Ethernet{EtherType: packet.EtherTypeIPv4}
	frame := eth.Append(nil, ip.Append(nil, seg))
	if _, err := ExtractFrames([][]byte{frame}); err == nil {
		t.Error("HTTP payload misparsed as hello")
	}
}

func TestExtractFramesQUICShortHeaderIgnored(t *testing.T) {
	src := netip.MustParseAddr("10.2.2.1")
	dst := netip.MustParseAddr("10.2.2.2")
	udp := packet.UDP{SrcPort: 9999, DstPort: 443}
	short := make([]byte, 100)
	short[0] = 0x41 // short header
	seg := udp.Append(nil, short, src, dst)
	ip := packet.IPv4{TTL: 64, Protocol: packet.ProtoUDP, Src: src, Dst: dst}
	eth := packet.Ethernet{EtherType: packet.EtherTypeIPv4}
	frame := eth.Append(nil, ip.Append(nil, seg))
	if _, err := ExtractFrames([][]byte{frame}); err != ErrNoHandshake {
		t.Errorf("err = %v, want ErrNoHandshake", err)
	}
}

// TestTrailerDoesNotChangeInitPacketSize pins that a TCP flow's
// initial-packet-size attribute is the SYN's IP packet size, not its frame's:
// a tap that appends an Ethernet trailer or pads to the minimum frame must
// extract the same HandshakeInfo as one that does not, over IPv4 and IPv6.
func TestTrailerDoesNotChangeInitPacketSize(t *testing.T) {
	const trailer = 6
	ft, err := tracegen.New(61).Flow("iOS_nativeApp", fingerprint.Netflix, fingerprint.TCP, tracegen.FlowSpec{})
	if err != nil {
		t.Fatal(err)
	}
	var v4 [][]byte
	for _, fr := range ft.Frames {
		if fr.ClientToServer {
			v4 = append(v4, fr.Data)
		}
	}

	f, err := fingerprint.Generate(rand.New(rand.NewPCG(3, 3)), "iOS_nativeApp", fingerprint.Netflix, fingerprint.TCP, fingerprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	client := netip.MustParseAddrPort("[2001:db8::2]:50000")
	server := netip.MustParseAddrPort("[2001:db8::443]:443")
	v6 := [][]byte{
		craftFrame(client, server, packet.ProtoTCP, packet.FlagSYN, nil, 0),
		craftFrame(client, server, packet.ProtoTCP, packet.FlagACK|packet.FlagPSH, f.Hello.MarshalRecord(), 0),
	}

	for _, c := range []struct {
		name   string
		frames [][]byte
		want   int // the SYN's IP packet size
	}{
		{"IPv4", v4, len(v4[0]) - 14},
		{"IPv6", v6, len(v6[0]) - 14},
	} {
		plain, err := ExtractFrames(c.frames)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		var withTrailer [][]byte
		for _, fr := range c.frames {
			withTrailer = append(withTrailer, append(append([]byte(nil), fr...), make([]byte, trailer)...))
		}
		padded, err := ExtractFrames(withTrailer)
		if err != nil {
			t.Fatalf("%s, %d trailer bytes: %v", c.name, trailer, err)
		}
		if plain.InitPacketSize != c.want || padded.InitPacketSize != c.want {
			t.Errorf("%s: init packet size = %d plain, %d with a %d-byte trailer, want %d both",
				c.name, plain.InitPacketSize, padded.InitPacketSize, trailer, c.want)
		}
		if !reflect.DeepEqual(plain, padded) {
			t.Errorf("%s: HandshakeInfo differs with a %d-byte trailer:\n plain  %+v\n padded %+v",
				c.name, trailer, plain, padded)
		}
	}
}
