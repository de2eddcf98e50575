package quicproto

import (
	"encoding/binary"
	"fmt"

	"videoplat/internal/wire"
)

// Parse bounds, fixed up front so no length or count read off the wire
// sizes a loop or a buffer.
const (
	// maxCryptoLen bounds the reassembled CRYPTO stream of one packet.
	// CRYPTO offset and length ride attacker-controlled varints (up to
	// 2^62-1), so without a cap a single forged Initial could demand an
	// arbitrarily large reassembly buffer. Real first-flight hellos are
	// well under 16 KB; 256 KB leaves room for any conceivable hello while
	// keeping the worst-case allocation trivial.
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
	errCryptoGap      = malformed("crypto stream has gaps")
)

func malformed(what string) error { return fmt.Errorf("%w: %s", ErrMalformed, what) }

// frame type codes handled in Initial packets.
const (
	framePadding = 0x00
	framePing    = 0x01
	frameACK     = 0x02
	frameCrypto  = 0x06
)

// cryptoSegment is one CRYPTO frame of the packet being opened: its stream
// offset and where its data sits in the decrypted payload.
type cryptoSegment struct {
	off        uint32 // stream offset, at most maxCryptoLen
	start, end uint32 // data is plaintext[start:end]
}

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
// p.CryptoData aliases that buffer and nothing else: not datagram and not
// the Opener, so it stays valid across later Opens for as long as the
// caller leaves the buffer alone. (A packet whose CRYPTO frames are not one
// run in memory has them reassembled, in offset order, behind the payload
// in the same buffer.) p.DCID, p.SCID and p.Token alias datagram.
//
// Apart from that buffer, the only allocations are the three cipher objects
// of the packet's key schedule, inside crypto/aes and crypto/cipher
// (TestOpenAllocs pins both counts).
func (o *Opener) Open(p *Initial, datagram, buf []byte) ([]byte, error) {
	*p = Initial{}
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
		buf = make([]byte, 0, need) // the one flow-owned payload buffer: whatever p.CryptoData aliases must outlive this call
	}
	plaintext, err := k.aead.Open(buf[:0], o.nonce[:], ciphertext, o.hdr)
	if err != nil {
		return buf, ErrAuthFailure
	}
	p.WireSize = len(datagram)
	return assembleCrypto(p, plaintext)
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

// assembleCrypto walks the frame sequence of a decrypted payload and sets
// (p.CryptoOffset, p.CryptoData) to the one contiguous run of CRYPTO stream
// the packet carries. The run need not start at stream offset 0 — a hello
// split across Initials puts later fragments at nonzero offsets. Gaps
// *within* one packet's segments remain malformed (no real stack leaves a
// hole in its own flight), and the total is bounded by maxCryptoLen so
// forged offset varints cannot demand huge buffers.
//
// A single CRYPTO frame — every stack that does not scatter its hello — is
// aliased where it lies in plaintext. Several are sorted by offset, checked
// for contiguity, and copied into one run appended behind plaintext; the
// (possibly regrown) buffer is returned.
func assembleCrypto(p *Initial, plaintext []byte) ([]byte, error) {
	var segs [maxCryptoSegments]cryptoSegment
	n := 0
	r := wire.NewReader(plaintext)
	for !r.Empty() {
		ft, err := r.Varint()
		if err != nil {
			return plaintext, errFrame
		}
		switch ft {
		case framePadding:
			r.SkipZeros() // the rest of the run: an Initial is mostly padding
		case framePing:
			// no body
		case frameACK, frameACK + 1:
			if err := skipACK(r, ft); err != nil {
				return plaintext, err
			}
		case frameCrypto:
			off, err := r.Varint()
			if err != nil {
				return plaintext, errFrame
			}
			size, err := r.Varint()
			if err != nil {
				return plaintext, errFrame
			}
			if off > maxCryptoLen || size > maxCryptoLen || off+size > maxCryptoLen {
				return plaintext, errCryptoLength
			}
			start := r.Offset()
			if r.Skip(int(size)) != nil {
				return plaintext, errFrame
			}
			if size == 0 {
				continue // carries no stream bytes
			}
			if n == maxCryptoSegments {
				return plaintext, errCryptoSegments
			}
			segs[n] = cryptoSegment{off: uint32(off), start: uint32(start), end: uint32(r.Offset())}
			n++
		default:
			return plaintext, errFrameType
		}
	}
	if n == 0 {
		return plaintext, nil
	}
	// Insertion sort by stream offset: n is small and usually 1.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && segs[j].off < segs[j-1].off; j-- {
			segs[j], segs[j-1] = segs[j-1], segs[j]
		}
	}
	base := segs[0].off
	end := base + (segs[0].end - segs[0].start)
	for _, s := range segs[1:n] {
		if s.off > end {
			return plaintext, errCryptoGap
		}
		end = max(end, s.off+(s.end-s.start))
	}
	p.CryptoOffset = uint64(base)
	if n == 1 {
		p.CryptoData = plaintext[segs[0].start:segs[0].end:segs[0].end]
		return plaintext, nil
	}
	// Grow the buffer by the run's length. What the growth copies in is
	// irrelevant — contiguity means the segments overwrite every byte — and
	// the run is no longer than the payload its segments came out of.
	mark := len(plaintext)
	plaintext = append(plaintext, plaintext[:end-base]...)
	run := plaintext[mark:]
	for _, s := range segs[:n] {
		copy(run[s.off-base:], plaintext[s.start:s.end])
	}
	p.CryptoData = run
	return plaintext, nil
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
