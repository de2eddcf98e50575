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

// TestExtractFramesSplitClientHello feeds a macOS ClientHello split across
// two TCP segments, exercising the stream-reassembly path of ExtractFrames:
// it must recover what the hello in one segment gives, the ECN-setup SYN's
// flags and options included.
func TestExtractFramesSplitClientHello(t *testing.T) {
	ft, err := tracegen.New(1).Flow("macOS_safari", fingerprint.Amazon, fingerprint.TCP, tracegen.FlowSpec{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ExtractTrace(ft)
	if err != nil {
		t.Fatal(err)
	}
	f := newHelloFlight(t, ft)
	cut := len(f.hello) / 3
	info, err := ExtractFrames([][]byte{f.synFrame(), f.piece(0, cut), f.piece(cut, len(f.hello))})
	if err != nil {
		t.Fatal(err)
	}
	if info.Hello.ServerName() != ft.SNI || info.TCPFlags&packet.FlagECE == 0 || info.TCPMSS == 0 {
		t.Errorf("split hello: SNI %q (want %q), SYN flags %#x, MSS %d", info.Hello.ServerName(), ft.SNI, info.TCPFlags, info.TCPMSS)
	}
	if !reflect.DeepEqual(info, want) {
		t.Errorf("split hello extracted\n%+v\nwant, as in one segment,\n%+v", info, want)
	}
}

func TestExtractFramesNoHello(t *testing.T) {
	if _, err := ExtractFrames(nil); err == nil {
		t.Error("empty frames accepted")
	}
	// A SYN alone holds no hello.
	syn := frameData(tracegen.New(1).CutHelloFlow(netip.MustParseAddr("10.0.0.1")))[:1]
	if _, err := ExtractFrames(syn); err == nil {
		t.Error("SYN-only flow should have no hello")
	}
}

func TestExtractFramesSkipsNonHandshakeTCPPayload(t *testing.T) {
	// A flow whose first payload is HTTP (not TLS) must not yield a hello.
	frame := craftFrame(netip.MustParseAddrPort("10.1.1.1:1"), netip.MustParseAddrPort("10.1.1.2:443"),
		packet.ProtoTCP, packet.FlagACK, []byte("GET / HTTP/1.1\r\n"), 0)
	if _, err := ExtractFrames([][]byte{frame}); err == nil {
		t.Error("HTTP payload misparsed as hello")
	}
}

func TestExtractFramesQUICShortHeaderIgnored(t *testing.T) {
	frame := craftFrame(netip.MustParseAddrPort("10.2.2.1:9999"), netip.MustParseAddrPort("10.2.2.2:443"),
		packet.ProtoUDP, 0, shortHeader(nil, 100), 0)
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
	v4 := clientData(ft)

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
