package quicproto

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"crypto/sha256"
	"crypto/subtle"
)

// initialSaltV1 is the version-1 Initial salt (RFC 9001 §5.2).
var initialSaltV1 = []byte{
	0x38, 0x76, 0x2c, 0xf7, 0xf5, 0x59, 0x34, 0xb3, 0x4d, 0x17,
	0x9a, 0xe6, 0xa4, 0xc8, 0x0c, 0xad, 0xcc, 0xbb, 0x7f, 0x0a,
}

// The client Initial key schedule (RFC 9001 §5.2) is five HMAC-SHA256
// computations under three keys: the version salt (HKDF-Extract over the
// DCID), the initial secret (expand "client in") and the client secret
// (expand "quic key", "quic iv", "quic hp"). Everything that does not depend
// on the packet is built once here: the salt's keyed pad blocks and the four
// HKDF-Expand-Label info blocks.
var (
	ipadFill = bytes.Repeat([]byte{0x36}, sha256.BlockSize)
	opadFill = bytes.Repeat([]byte{0x5c}, sha256.BlockSize)
	saltKey  = newHMACKey(initialSaltV1)

	labelClientIn = expandLabelInfo("client in", 32)
	labelKey      = expandLabelInfo("quic key", 16)
	labelIV       = expandLabelInfo("quic iv", 12)
	labelHP       = expandLabelInfo("quic hp", 16)
)

// expandLabelInfo builds the HkdfLabel of HKDF-Expand-Label (RFC 8446 §7.1,
// "tls13 " prefix, empty context) followed by HKDF-Expand's block counter
// (RFC 5869 §2.3). Every output of this schedule is at most one SHA-256
// digest long, so each expansion is the single block T(1).
func expandLabelInfo(label string, length int) []byte {
	full := "tls13 " + label
	info := []byte{byte(length >> 8), byte(length), byte(len(full))}
	info = append(info, full...)
	return append(info, 0, 1) // empty context, then T(1)'s counter
}

// hmacKey is an HMAC-SHA256 key expanded into its two pad blocks
// (RFC 2104), so a key that serves several messages — the client secret
// serves three — is expanded once.
type hmacKey struct {
	ipad, opad [sha256.BlockSize]byte
}

// newHMACKey expands a key of at most one SHA-256 block. All keys of the
// Initial schedule are 20 or 32 bytes.
func newHMACKey(key []byte) (k hmacKey) {
	copy(k.opad[:], key)
	subtle.XORBytes(k.ipad[:], k.opad[:], ipadFill)
	subtle.XORBytes(k.opad[:], k.opad[:], opadFill)
	return k
}

// hmacMaxMsg bounds sum's message: a connection ID or a label block, 20
// bytes at most, and for the outer hash the 32-byte inner digest.
const hmacMaxMsg = sha256.Size

// sum returns HMAC-SHA256(k, msg) for len(msg) <= hmacMaxMsg. It is two
// sha256.Sum256 calls over a stack buffer: no hash.Hash, so nothing is
// allocated and no hash state is carried between packets. (Saving and
// restoring a digest's post-pad state instead, as crypto/hmac does, trades
// two of each MAC's four compressions for two state copies and measured no
// faster at these message sizes.)
func (k *hmacKey) sum(msg []byte) [sha256.Size]byte {
	var buf [sha256.BlockSize + hmacMaxMsg]byte
	copy(buf[:], k.ipad[:])
	n := copy(buf[sha256.BlockSize:], msg)
	inner := sha256.Sum256(buf[:sha256.BlockSize+n])
	copy(buf[:], k.opad[:])
	copy(buf[sha256.BlockSize:], inner[:])
	return sha256.Sum256(buf[:])
}

// keys holds the client's Initial packet-protection material.
type keys struct {
	aead cipher.AEAD
	iv   [12]byte
	hp   cipher.Block // AES-ECB header-protection cipher
}

// clientKeys derives the client's Initial keys from the client's
// destination connection ID. The three cipher objects it builds are its
// only allocations; crypto/aes offers no way to re-key one in place.
func clientKeys(dcid []byte) (keys, error) {
	initial := saltKey.sum(dcid) // HKDF-Extract(salt, dcid)
	prk := newHMACKey(initial[:])
	client := prk.sum(labelClientIn)
	prk = newHMACKey(client[:])
	key, iv, hpKey := prk.sum(labelKey), prk.sum(labelIV), prk.sum(labelHP)

	var k keys
	copy(k.iv[:], iv[:])
	block, err := aes.NewCipher(key[:16])
	if err != nil {
		return k, err
	}
	if k.aead, err = cipher.NewGCM(block); err != nil {
		return k, err
	}
	k.hp, err = aes.NewCipher(hpKey[:16])
	return k, err
}

// nonce writes the packet's AEAD nonce — the packet number XORed into the
// static IV — to dst.
func (k *keys) nonce(dst *[12]byte, pn uint64) {
	*dst = k.iv
	for i := 0; i < 8; i++ {
		dst[len(dst)-1-i] ^= byte(pn >> (8 * i))
	}
}

// headerProtectionMask encrypts the 16-byte ciphertext sample into dst; its
// first five bytes are the header-protection mask (RFC 9001 §5.4.3). dst is
// caller-provided because arguments to cipher.Block escape: a local array
// would be a heap allocation per packet.
func (k *keys) headerProtectionMask(dst *[16]byte, sample []byte) {
	k.hp.Encrypt(dst[:], sample)
}
