package quicproto

import (
	"encoding/binary"
	"fmt"

	"videoplat/internal/wire"
)

// Parse bounds, fixed up front so no length or count read off the wire
// sizes a loop or a buffer.
const (
	// maxCryptoLen bounds the CRYPTO stream offsets one frame may name.
	// CRYPTO offset and length ride attacker-controlled varints (up to
	// 2^62-1); a frame reaching past 256 KB is malformed, so what a packet
	// lists always fits the 32-bit offsets a flow's reassembler keeps. Real
	// first-flight hellos are well under 16 KB.
	maxCryptoLen = 1 << 18
	// maxCryptoSegments bounds the CRYPTO frames of one Initial. Stacks
	// that scatter the hello to resist ossification (Chromium's chaos
	// protection) emit about a dozen; a packet with more is not a first
	// flight worth reassembling.
	maxCryptoSegments = 32
	// maxCIDLen is the longest connection ID of QUIC v1 (RFC 9000 §17.2).
	maxCIDLen = 20
)

// The reject paths run once per packet a tap cannot use — other long-header
// types, other versions, truncated captures — so they return pre-built
// errors: nothing is formatted and nothing allocated. Each wraps
// ErrMalformed.
var (
	errEmpty          = malformed("empty datagram")
	errTruncated      = malformed("truncated header")
	errCID            = malformed("connection id length")
	errPacketLength   = malformed("packet length outside datagram")
	errFrame          = malformed("truncated frame")
	errFrameType      = malformed("unexpected frame type in Initial")
	errCryptoLength   = malformed("crypto stream exceeds 256 KiB")
	errCryptoSegments = malformed("more than 32 crypto frames")
)

func malformed(what string) error { return fmt.Errorf("%w: %s", ErrMalformed, what) }

// frame type codes handled in Initial packets.
const (
	framePadding = 0x00
	framePing    = 0x01
	frameACK     = 0x02
	frameCrypto  = 0x06
)

// Opener decrypts client Initial packets. It holds the scratch that has to
// be handed to the cipher interfaces while a packet is being opened — the
// unprotected header, nonce and header-protection mask, which would each be
// a heap allocation per packet as locals — so the steady state allocates
// nothing of its own; what a caller keeps is written into the caller's
// buffer (see Open). The zero value is ready to use. An Opener is
// single-goroutine: each Pipeline owns one.
type Opener struct {
	hdr       []byte   // unprotected header: the AEAD's associated data
	hdrInline [64]byte // backs hdr for every header without a long token
	nonce     [12]byte
	mask      [16]byte
}

// Open decrypts and decodes the client Initial at the start of datagram
// into p, overwriting every field. Coalesced packets after the Initial are
// ignored.
//
// The decrypted payload is written into buf's backing array when it fits
// and into a newly allocated one when it does not; either way the buffer is
// returned — also on error — for the caller to keep and offer again.
// p.Crypto lists the packet's CRYPTO frames in wire order, unordered and
// unmerged — pieces of the stream for the caller's reassembler to place —
// in the capacity of the list p held before. Each frame's Data aliases
// that buffer and nothing else: not datagram and not the Opener, so it
// stays valid across later Opens for as long as the caller leaves the
// buffer alone. p.DCID, p.SCID and p.Token alias datagram.
//
// Apart from that buffer and a list that outgrows its capacity, the only
// allocations are the three cipher objects of the packet's key schedule,
// inside crypto/aes and crypto/cipher (TestOpenAllocs pins the counts).
func (o *Opener) Open(p *Initial, datagram, buf []byte) ([]byte, error) {
	*p = Initial{Crypto: p.Crypto[:0]}
	err := checkInitial(datagram)
	if err != nil {
		return buf, err
	}
	p.Version = Version1
	r := wire.NewReader(datagram[5:])
	if p.DCID, err = readCID(r); err != nil {
		return buf, err
	}
	if p.SCID, err = readCID(r); err != nil {
		return buf, err
	}
	tokenLen, err := r.Varint()
	if err != nil {
		return buf, errTruncated
	}
	if p.Token, err = r.Bytes(int(tokenLen)); err != nil {
		return buf, errTruncated
	}
	length, err := r.Varint()
	if err != nil {
		return buf, errTruncated
	}
	pnOffset := 5 + r.Offset()
	// The header-protection sample is the 16 bytes starting 4 past the
	// packet number's first byte; a length of 20 guarantees it.
	if length < 20 || length > uint64(r.Len()) {
		return buf, errPacketLength
	}

	k, err := clientKeys(p.DCID) // the packet's three cipher objects, inside crypto/aes and crypto/cipher, which cannot be re-keyed; the hashing stays on the stack
	if err != nil {
		return buf, err
	}
	k.headerProtectionMask(&o.mask, datagram[pnOffset+4:pnOffset+4+16])
	first := datagram[0] ^ o.mask[0]&0x0f
	pnLen := int(first&0x03) + 1
	if o.hdr == nil {
		o.hdr = o.hdrInline[:0]
	}
	o.hdr = append(o.hdr[:0], datagram[:pnOffset+pnLen]...)
	o.hdr[0] = first
	var pn uint64
	for i := 0; i < pnLen; i++ {
		o.hdr[pnOffset+i] ^= o.mask[1+i]
		pn = pn<<8 | uint64(o.hdr[pnOffset+i])
	}
	p.PacketNumber = pn
	k.nonce(&o.nonce, pn)

	ciphertext := datagram[pnOffset+pnLen : pnOffset+int(length)]
	if need := len(ciphertext) - k.aead.Overhead(); cap(buf) < need {
		buf = make([]byte, 0, need) // the one flow-owned payload buffer: whatever p.Crypto aliases must outlive this call
	}
	plaintext, err := k.aead.Open(buf[:0], o.nonce[:], ciphertext, o.hdr)
	if err != nil {
		return buf, ErrAuthFailure
	}
	p.WireSize = len(datagram)
	return plaintext, listCrypto(p, plaintext)
}

// checkInitial classifies a datagram by the five bytes no protection covers:
// nil for a version-1 Initial, else why it is not one. These are the
// rejections a tap makes for most QUIC packets it sees, so they come first
// and cost nothing.
func checkInitial(datagram []byte) error {
	switch {
	case len(datagram) == 0:
		return errEmpty
	case !IsLongHeader(datagram):
		return ErrNotLongHeader
	case LongHeaderType(datagram) != TypeInitial:
		return ErrNotInitial
	case len(datagram) < 5:
		return errTruncated
	case binary.BigEndian.Uint32(datagram[1:]) != Version1:
		return ErrBadVersion
	}
	return nil
}

// readCID reads a length-prefixed connection ID.
func readCID(r *wire.Reader) ([]byte, error) {
	n, err := r.Uint8()
	if err != nil || n > maxCIDLen {
		return nil, errCID
	}
	cid, err := r.Bytes(int(n))
	if err != nil {
		return nil, errCID
	}
	return cid, nil
}

// listCrypto walks the frame sequence of a decrypted payload and appends
// each CRYPTO frame that carries bytes to p.Crypto, its Data aliasing
// plaintext, within maxCryptoLen and maxCryptoSegments.
func listCrypto(p *Initial, plaintext []byte) error {
	r := wire.NewReader(plaintext)
	for !r.Empty() {
		ft, err := r.Varint()
		if err != nil {
			return errFrame
		}
		switch ft {
		case framePadding:
			r.SkipZeros() // the rest of the run: an Initial is mostly padding
		case framePing:
			// no body
		case frameACK, frameACK + 1:
			if err := skipACK(r, ft); err != nil {
				return err
			}
		case frameCrypto:
			off, err := r.Varint()
			if err != nil {
				return errFrame
			}
			size, err := r.Varint()
			if err != nil {
				return errFrame
			}
			if off > maxCryptoLen || size > maxCryptoLen || off+size > maxCryptoLen {
				return errCryptoLength
			}
			data, err := r.Bytes(int(size))
			if err != nil {
				return errFrame
			}
			if size == 0 {
				continue // carries no stream bytes
			}
			if len(p.Crypto) == maxCryptoSegments {
				return errCryptoSegments
			}
			p.Crypto = append(p.Crypto, CryptoFrame{Offset: off, Data: data[:len(data):len(data)]})
		default:
			return errFrameType
		}
	}
	return nil
}

func skipACK(r *wire.Reader, ft uint64) error {
	// largest acked, ack delay (RFC 9000 §19.3)
	for i := 0; i < 2; i++ {
		if _, err := r.Varint(); err != nil {
			return errFrame
		}
	}
	count, err := r.Varint()
	if err != nil {
		return errFrame
	}
	if _, err := r.Varint(); err != nil { // first ack range
		return errFrame
	}
	for i := uint64(0); i < count; i++ { // gap + range length pairs
		for j := 0; j < 2; j++ {
			if _, err := r.Varint(); err != nil {
				return errFrame
			}
		}
	}
	if ft == frameACK+1 { // ACK_ECN: ECT0, ECT1, CE counts
		for j := 0; j < 3; j++ {
			if _, err := r.Varint(); err != nil {
				return errFrame
			}
		}
	}
	return nil
}
