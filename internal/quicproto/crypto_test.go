package quicproto

import (
	"errors"
	"testing"

	"videoplat/internal/wire"
)

// cryptoFrame encodes one CRYPTO frame for frame-walk tests.
func cryptoFrame(off uint64, data []byte) []byte {
	b := wire.AppendVarint([]byte{frameCrypto}, off)
	b = wire.AppendVarint(b, uint64(len(data)))
	return append(b, data...)
}

// assemble runs a raw frame sequence through the frame walk. Putting the
// listed frames in order is the flow assembler's job, and its tests (in
// internal/pipeline) cover out-of-order, overlapping and gapped frames.
func assemble(frames []byte) (*Initial, error) {
	p := &Initial{}
	return p, listCrypto(p, frames)
}

func TestAssembleCryptoSkipsACK(t *testing.T) {
	// ACK frame: type 0x02, largest=5, delay=0, range count=0, first range=2.
	ack := []byte{0x02, 0x05, 0x00, 0x00, 0x02}
	frames := append(append([]byte{}, ack...), cryptoFrame(0, []byte("ch"))...)
	p, err := assemble(frames)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Crypto) != 1 || p.Crypto[0].Offset != 0 || string(p.Crypto[0].Data) != "ch" {
		t.Errorf("crypto = %+v", p.Crypto)
	}
}

// TestListCryptoKeepsWireOrder: frames are listed as the packet carries
// them — out of order, overlapping, with a hole — PINGs and PADDING
// skipped, and empty frames dropped.
func TestListCryptoKeepsWireOrder(t *testing.T) {
	var frames []byte
	frames = append(frames, cryptoFrame(8, []byte("89abcdef"))...)
	frames = append(frames, framePing)
	frames = append(frames, cryptoFrame(0, []byte("0123456789"))...) // overlaps 8..10
	frames = append(frames, cryptoFrame(3, nil)...)
	frames = append(frames, cryptoFrame(40, []byte("xyz"))...) // a hole at 16..40
	frames = append(frames, 0x00, 0x00)                        // trailing PADDING
	p, err := assemble(frames)
	if err != nil {
		t.Fatal(err)
	}
	want := []CryptoFrame{{8, []byte("89abcdef")}, {0, []byte("0123456789")}, {40, []byte("xyz")}}
	if len(p.Crypto) != len(want) {
		t.Fatalf("listed %d frames, want %d: %+v", len(p.Crypto), len(want), p.Crypto)
	}
	for i, f := range p.Crypto {
		if f.Offset != want[i].Offset || string(f.Data) != string(want[i].Data) {
			t.Errorf("frame %d = %d:%q, want %d:%q", i, f.Offset, f.Data, want[i].Offset, want[i].Data)
		}
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

// TestListCryptoBoundsOffsets: a frame reaching past maxCryptoLen is
// malformed, so no listed offset overflows the flow assembler's 32 bits.
func TestListCryptoBoundsOffsets(t *testing.T) {
	if _, err := assemble(cryptoFrame(maxCryptoLen-1, []byte("ab"))); !errors.Is(err, ErrMalformed) {
		t.Errorf("frame ending past %d accepted: err = %v", maxCryptoLen, err)
	}
	if _, err := assemble(cryptoFrame(maxCryptoLen-2, []byte("ab"))); err != nil {
		t.Errorf("frame ending at %d rejected: %v", maxCryptoLen, err)
	}
}
