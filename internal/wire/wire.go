// Package wire provides low-level byte-order encoding helpers shared by the
// packet, TLS and QUIC codecs: a bounds-checked big-endian reader, QUIC
// variable-length integers (RFC 9000 §16) and GREASE value tables (RFC 8701).
// Encoders append to a byte slice with encoding/binary and AppendVarint.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrShortBuffer is returned when a read runs past the end of the input.
var ErrShortBuffer = errors.New("wire: short buffer")

// Reader is a bounds-checked cursor over a byte slice. All multi-byte reads
// are big-endian (network order). Methods return ErrShortBuffer instead of
// panicking so that malformed packets are rejected, not fatal.
type Reader struct {
	buf []byte
	off int
}

// NewReader returns a Reader positioned at the start of buf. It inlines, so a
// reader that does not escape stays on its caller's stack — what keeps the
// parsers under TestEncodeIntoZeroAlloc allocation-free.
func NewReader(buf []byte) *Reader { return &Reader{buf: buf} }

// Len reports the number of unread bytes.
func (r *Reader) Len() int { return len(r.buf) - r.off }

// Offset reports the number of bytes consumed so far.
func (r *Reader) Offset() int { return r.off }

// Empty reports whether all bytes have been consumed.
func (r *Reader) Empty() bool { return r.off >= len(r.buf) }

// Uint8 reads one byte.
func (r *Reader) Uint8() (uint8, error) {
	if r.Len() < 1 {
		return 0, ErrShortBuffer
	}
	v := r.buf[r.off]
	r.off++
	return v, nil
}

// Uint16 reads a big-endian 16-bit integer.
func (r *Reader) Uint16() (uint16, error) {
	if r.Len() < 2 {
		return 0, ErrShortBuffer
	}
	v := binary.BigEndian.Uint16(r.buf[r.off:])
	r.off += 2
	return v, nil
}

// Uint24 reads a big-endian 24-bit integer (TLS handshake lengths).
func (r *Reader) Uint24() (uint32, error) {
	if r.Len() < 3 {
		return 0, ErrShortBuffer
	}
	b := r.buf[r.off:]
	r.off += 3
	return uint32(b[0])<<16 | uint32(b[1])<<8 | uint32(b[2]), nil
}

// Uint32 reads a big-endian 32-bit integer.
func (r *Reader) Uint32() (uint32, error) {
	if r.Len() < 4 {
		return 0, ErrShortBuffer
	}
	v := binary.BigEndian.Uint32(r.buf[r.off:])
	r.off += 4
	return v, nil
}

// Uint64 reads a big-endian 64-bit integer.
func (r *Reader) Uint64() (uint64, error) {
	if r.Len() < 8 {
		return 0, ErrShortBuffer
	}
	v := binary.BigEndian.Uint64(r.buf[r.off:])
	r.off += 8
	return v, nil
}

// Bytes reads exactly n bytes. The returned slice aliases the input buffer.
func (r *Reader) Bytes(n int) ([]byte, error) {
	if n < 0 || r.Len() < n {
		return nil, ErrShortBuffer
	}
	v := r.buf[r.off : r.off+n]
	r.off += n
	return v, nil
}

// Skip advances the cursor by n bytes.
func (r *Reader) Skip(n int) error {
	if n < 0 || r.Len() < n {
		return ErrShortBuffer
	}
	r.off += n
	return nil
}

// SkipZeros advances the cursor past the run of zero bytes at its position,
// eight bytes per step. QUIC pads an Initial with hundreds of one-byte
// PADDING frames (type 0x00); walking them as one run instead of one varint
// each is what keeps the frame walk proportional to the real frames.
func (r *Reader) SkipZeros() {
	b := r.buf[r.off:]
	i := 0
	for len(b)-i >= 8 && binary.LittleEndian.Uint64(b[i:]) == 0 {
		i += 8
	}
	for i < len(b) && b[i] == 0 {
		i++
	}
	r.off += i
}

// Varint reads a QUIC variable-length integer (RFC 9000 §16): the two most
// significant bits of the first byte encode the total length 1/2/4/8.
func (r *Reader) Varint() (uint64, error) {
	if r.Len() < 1 {
		return 0, ErrShortBuffer
	}
	first := r.buf[r.off]
	length := 1 << (first >> 6)
	if r.Len() < length {
		return 0, ErrShortBuffer
	}
	v := uint64(first & 0x3f)
	for i := 1; i < length; i++ {
		v = v<<8 | uint64(r.buf[r.off+i])
	}
	r.off += length
	return v, nil
}

// VarintLen reports the encoded size in bytes of v, or 0 if out of range.
func VarintLen(v uint64) int {
	switch {
	case v < 1<<6:
		return 1
	case v < 1<<14:
		return 2
	case v < 1<<30:
		return 4
	case v < 1<<62:
		return 8
	}
	return 0
}

// AppendVarint appends a QUIC varint to b using the smallest encoding.
// It panics if v is out of range; callers encoding a value that may be out
// of range check it with VarintLen first.
func AppendVarint(b []byte, v uint64) []byte {
	switch VarintLen(v) {
	case 1:
		return append(b, byte(v))
	case 2:
		return append(b, 0x40|byte(v>>8), byte(v))
	case 4:
		return append(b, 0x80|byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	case 8:
		return append(b, 0xc0|byte(v>>56), byte(v>>48), byte(v>>40),
			byte(v>>32), byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
	panic(fmt.Sprintf("wire: varint %d out of range", v))
}

// GREASE values reserved by RFC 8701 for TLS cipher suites, extensions and
// named groups. Chromium-family clients inject one value from this table at
// randomized positions; fingerprinting code must normalize them.
var greaseValues = [...]uint16{
	0x0a0a, 0x1a1a, 0x2a2a, 0x3a3a, 0x4a4a, 0x5a5a, 0x6a6a, 0x7a7a,
	0x8a8a, 0x9a9a, 0xaaaa, 0xbaba, 0xcaca, 0xdada, 0xeaea, 0xfafa,
}

// IsGrease reports whether v is an RFC 8701 GREASE value
// (both bytes equal and low nibble 0xa).
func IsGrease(v uint16) bool {
	return byte(v)&0x0f == 0x0a && byte(v) == byte(v>>8)
}

// GreaseValue returns the i-th GREASE value (mod table size); use with a
// per-flow random index to mimic Chromium's draw.
func GreaseValue(i int) uint16 {
	return greaseValues[((i%len(greaseValues))+len(greaseValues))%len(greaseValues)]
}

// GreaseTransportParam reports whether a QUIC transport parameter ID is a
// reserved/GREASE identifier (id = 31*N+27, RFC 9000 §18.1).
func GreaseTransportParam(id uint64) bool {
	return id >= 27 && (id-27)%31 == 0
}
