// Package quicproto implements the subset of QUIC v1 (RFC 9000/9001) needed
// to generate and analyze Initial packets: long-header encoding, the Initial
// secret schedule (HKDF over SHA-256), AES-128-GCM payload protection,
// AES-based header protection, the CRYPTO frames of an Initial, and the
// transport parameter codec including the Google-specific parameters
// observed in YouTube traffic.
//
// It reads and writes packets but reassembles no stream: an opened Initial
// lists its CRYPTO frames as they lie, in any order, overlapping or not, and
// a flow's assembler (internal/pipeline) puts the pieces of all its
// Initials in order.
//
// Initial packets are encrypted with keys derived from public values (the
// destination connection ID), so an on-path observer — the ISP vantage point
// of the paper — can decrypt them and read the embedded TLS ClientHello.
package quicproto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"

	"videoplat/internal/wire"
)

// Version1 is the QUIC version 1 field value.
const Version1 uint32 = 0x00000001

// Errors returned by the Initial packet codec.
var (
	ErrNotLongHeader = errors.New("quicproto: not a long-header packet")
	ErrNotInitial    = errors.New("quicproto: not an Initial packet")
	ErrBadVersion    = errors.New("quicproto: unsupported version")
	ErrAuthFailure   = errors.New("quicproto: payload authentication failed")
	ErrMalformed     = errors.New("quicproto: malformed packet")
)

// Initial is a decoded (or to-be-encoded) QUIC Initial packet.
type Initial struct {
	Version      uint32
	DCID, SCID   []byte
	Token        []byte
	PacketNumber uint64

	// Crypto lists the packet's CRYPTO frames in wire order: the whole hello
	// at offset 0 in the common case, or pieces of one scattered over
	// frames (Chromium) or split across Initials (a client that migrated
	// mid-handshake). Seal writes one CRYPTO frame per entry, in order.
	Crypto []CryptoFrame

	// WireSize is the size of the UDP payload this packet was parsed from
	// or encoded to — the paper's init_packet_size attribute.
	WireSize int
}

// CryptoFrame is one CRYPTO frame: Data is the handshake stream's bytes
// from stream offset Offset on.
type CryptoFrame struct {
	Offset uint64
	Data   []byte
}

// ParseInitial decrypts and decodes a client Initial packet from a UDP
// datagram: Opener.Open with a fresh Opener and buffer, for callers that
// parse one packet (a per-packet path keeps an Opener). Crypto lists the
// CRYPTO frames as the packet carries them, unordered and unmerged.
func ParseInitial(datagram []byte) (*Initial, error) {
	// Open makes this check itself; making it here first keeps the common
	// rejections clear of the two allocations below.
	if err := checkInitial(datagram); err != nil {
		return nil, err
	}
	var o Opener
	x := new(struct { // the Initial and its usual one frame, in one allocation
		p Initial
		c [1]CryptoFrame
	})
	x.p.Crypto = x.c[:0]
	if _, err := o.Open(&x.p, datagram, nil); err != nil {
		return nil, err
	}
	return &x.p, nil
}

// MinInitialSize is the minimum UDP payload size for client Initials
// (RFC 9000 §14.1).
const MinInitialSize = 1200

// Seal appends the Initial, encoded and encrypted, to dst as one UDP
// datagram: Sealer.Seal with a fresh Sealer, for callers that seal one
// packet (a generator keeps a Sealer).
func (p *Initial) Seal(dst []byte, minSize int) ([]byte, error) {
	var s Sealer
	return s.Seal(p, dst, minSize)
}

// Sealer encrypts client Initial packets. Like Opener, it holds the scratch
// handed to the cipher interfaces while a packet is sealed — the nonce and
// the header-protection mask, which would each be a heap allocation per
// packet as locals. The zero value is ready to use; a Sealer is
// single-goroutine.
type Sealer struct {
	nonce [12]byte
	mask  [16]byte
}

// Seal appends p, encoded and encrypted, to dst as one UDP datagram: one
// CRYPTO frame per Crypto entry, in list order, padded with PADDING frames
// to at least minSize (use 0 for the RFC default of 1200). The header and
// frames are written into dst and sealed where they lie, so the datagram
// takes no buffer but dst. It sets p.WireSize.
func (s *Sealer) Seal(p *Initial, dst []byte, minSize int) ([]byte, error) {
	if len(p.DCID) > maxCIDLen || len(p.SCID) > maxCIDLen {
		return nil, errCID
	}
	plainLen := 0
	for _, f := range p.Crypto {
		if wire.VarintLen(f.Offset) == 0 {
			return nil, fmt.Errorf("quicproto: CRYPTO offset %d out of varint range", f.Offset)
		}
		plainLen += 1 + wire.VarintLen(f.Offset) + wire.VarintLen(uint64(len(f.Data))) + len(f.Data)
	}
	if minSize == 0 {
		minSize = MinInitialSize
	}
	const pnLen = 4 // fixed-length packet number keeps the header math simple

	// Compute header size to find how much padding reaches minSize.
	hdrLen := func(payloadLen int) int {
		n := 1 + 4 + 1 + len(p.DCID) + 1 + len(p.SCID)
		n += wire.VarintLen(uint64(len(p.Token))) + len(p.Token)
		n += wire.VarintLen(uint64(pnLen + payloadLen + 16)) // length field
		return n
	}
	if total := hdrLen(plainLen) + pnLen + plainLen + 16; total < minSize {
		plainLen += minSize - total
	}

	start := len(dst)
	dst = slices.Grow(dst, hdrLen(plainLen)+pnLen+plainLen+16)
	dst = append(dst, 0xc0|(pnLen-1)) // long header, fixed bit, Initial, pn len
	dst = binary.BigEndian.AppendUint32(dst, p.Version)
	dst = append(dst, uint8(len(p.DCID)))
	dst = append(dst, p.DCID...)
	dst = append(dst, uint8(len(p.SCID)))
	dst = append(dst, p.SCID...)
	dst = wire.AppendVarint(dst, uint64(len(p.Token)))
	dst = append(dst, p.Token...)
	dst = wire.AppendVarint(dst, uint64(pnLen+plainLen+16))
	pnOffset := len(dst) - start
	dst = binary.BigEndian.AppendUint32(dst, uint32(p.PacketNumber))
	body := len(dst)
	for _, f := range p.Crypto {
		dst = append(dst, frameCrypto)
		dst = wire.AppendVarint(dst, f.Offset)
		dst = wire.AppendVarint(dst, uint64(len(f.Data)))
		dst = append(dst, f.Data...)
	}
	dst = append(dst, make([]byte, body+plainLen-len(dst))...) // PADDING frames

	k, err := clientKeys(p.DCID)
	if err != nil {
		return nil, fmt.Errorf("quicproto: initial keys: %w", err)
	}
	k.nonce(&s.nonce, p.PacketNumber)
	// The ciphertext overwrites the plaintext exactly, which AEAD allows;
	// the header before it is the additional data.
	dst = k.aead.Seal(dst[:body], s.nonce[:], dst[body:], dst[start:body])

	// Apply header protection.
	out := dst[start:]
	k.headerProtectionMask(&s.mask, out[pnOffset+4:pnOffset+4+16])
	out[0] ^= s.mask[0] & 0x0f
	for i := 0; i < pnLen; i++ {
		out[pnOffset+i] ^= s.mask[1+i]
	}
	p.WireSize = len(out)
	return dst, nil
}

// IsLongHeader reports whether a UDP payload starts with a QUIC long header.
func IsLongHeader(b []byte) bool { return len(b) > 0 && b[0]&0x80 != 0 }

// Long packet types (RFC 9000 §17.2), as returned by LongHeaderType.
const (
	TypeInitial   uint8 = 0
	Type0RTT      uint8 = 1
	TypeHandshake uint8 = 2
	TypeRetry     uint8 = 3
)

// LongHeaderType returns a long-header packet's type bits. Valid only when
// IsLongHeader(b); the type bits are not covered by header protection, so
// they read true off the wire.
func LongHeaderType(b []byte) uint8 { return (b[0] >> 4) & 0x03 }

// LongHeaderCIDs is the plaintext prefix every long-header packet exposes
// before any cryptography: its type, version and both connection IDs. This
// is all an on-path observer can read from 0-RTT or Handshake packets — and
// exactly what a flow tracker needs to follow a connection across a
// migration, since the IDs survive the 5-tuple change.
type LongHeaderCIDs struct {
	Type       uint8
	Version    uint32
	DCID, SCID []byte
}

// ParseLongHeaderCIDs decodes the plaintext connection-ID prefix of any
// long-header packet (Initial, 0-RTT, Handshake, Retry) without touching
// packet protection. The returned DCID/SCID alias datagram; copy them to
// retain past the buffer's lifetime. Allocation-free.
func ParseLongHeaderCIDs(datagram []byte) (LongHeaderCIDs, error) {
	var out LongHeaderCIDs
	if len(datagram) < 7 {
		return out, errTruncated
	}
	first := datagram[0]
	if first&0x80 == 0 {
		return out, ErrNotLongHeader
	}
	out.Type = (first >> 4) & 0x03
	out.Version = uint32(datagram[1])<<24 | uint32(datagram[2])<<16 |
		uint32(datagram[3])<<8 | uint32(datagram[4])
	i := 5
	dcidLen := int(datagram[i])
	i++
	if dcidLen > maxCIDLen || i+dcidLen >= len(datagram) {
		return out, errCID
	}
	out.DCID = datagram[i : i+dcidLen]
	i += dcidLen
	scidLen := int(datagram[i])
	i++
	if scidLen > maxCIDLen || i+scidLen > len(datagram) {
		return out, errCID
	}
	out.SCID = datagram[i : i+scidLen]
	return out, nil
}
