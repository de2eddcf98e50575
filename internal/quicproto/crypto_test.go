package quicproto

import (
	"bytes"
	"errors"
	"testing"

	"videoplat/internal/wire"
)

// cryptoFrame encodes one CRYPTO frame for assembleCrypto tests.
func cryptoFrame(off uint64, data []byte) []byte {
	w := wire.NewWriter(16 + len(data))
	w.Uint8(frameCrypto)
	_ = w.Varint(off)
	_ = w.Varint(uint64(len(data)))
	w.Write(data)
	return w.Bytes()
}

// assemble runs a raw frame sequence through the frame walk.
func assemble(frames []byte) (*Initial, error) {
	p := &Initial{}
	_, err := assembleCrypto(p, frames)
	return p, err
}

func TestAssembleCryptoOutOfOrderSegments(t *testing.T) {
	want := []byte("0123456789abcdef")
	var frames []byte
	frames = append(frames, cryptoFrame(8, want[8:])...)
	frames = append(frames, 0x01) // PING between segments
	frames = append(frames, cryptoFrame(0, want[:8])...)
	frames = append(frames, 0x00, 0x00) // trailing PADDING

	p, err := assemble(frames)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.CryptoData, want) {
		t.Errorf("crypto = %q, want %q", p.CryptoData, want)
	}
}

func TestAssembleCryptoOverlappingSegments(t *testing.T) {
	want := []byte("hello quic world")
	var frames []byte
	frames = append(frames, cryptoFrame(0, want[:10])...)
	frames = append(frames, cryptoFrame(6, want[6:])...) // overlaps 6..10

	p, err := assemble(frames)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(p.CryptoData, want) {
		t.Errorf("crypto = %q, want %q", p.CryptoData, want)
	}
}

func TestAssembleCryptoGapDetected(t *testing.T) {
	var frames []byte
	frames = append(frames, cryptoFrame(0, []byte("abc"))...)
	frames = append(frames, cryptoFrame(10, []byte("xyz"))...) // hole 3..10

	if _, err := assemble(frames); !errors.Is(err, ErrMalformed) {
		t.Errorf("gap not detected: err = %v", err)
	}
}

func TestAssembleCryptoSkipsACK(t *testing.T) {
	// ACK frame: type 0x02, largest=5, delay=0, range count=0, first range=2.
	ack := []byte{0x02, 0x05, 0x00, 0x00, 0x02}
	frames := append(append([]byte{}, ack...), cryptoFrame(0, []byte("ch"))...)
	p, err := assemble(frames)
	if err != nil {
		t.Fatal(err)
	}
	if string(p.CryptoData) != "ch" {
		t.Errorf("crypto = %q", p.CryptoData)
	}
}

func TestAssembleCryptoRejectsUnexpectedFrame(t *testing.T) {
	// STREAM frames (0x08+) are not allowed in Initial packets.
	if _, err := assemble([]byte{0x08, 0x00}); !errors.Is(err, ErrMalformed) {
		t.Errorf("STREAM frame accepted in Initial: err = %v", err)
	}
}

func TestAssembleCryptoTruncatedFrame(t *testing.T) {
	// CRYPTO header claims 100 bytes but only 2 follow.
	bad := []byte{frameCrypto, 0x00, 0x64, 'a', 'b'}
	if _, err := assemble(bad); !errors.Is(err, ErrMalformed) {
		t.Errorf("truncated crypto accepted: err = %v", err)
	}
}
