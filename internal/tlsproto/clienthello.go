// Package tlsproto parses and builds TLS ClientHello messages, covering
// every handshake field the paper's Table 2 formalizes into classification
// attributes: the mandatory fields (version, cipher suites, compression
// methods), the 23 optional extensions, and the QUIC transport-parameter
// extension carried inside QUIC Initial CRYPTO frames.
//
// The package works on both directions: Parse decodes wire bytes captured
// from a network (tolerating GREASE and unknown extensions), and Marshal
// produces wire bytes for the synthetic trace generator.
package tlsproto

import (
	"encoding/binary"
	"errors"
	"fmt"

	"videoplat/internal/wire"
)

// TLS extension type codes (IANA "TLS ExtensionType Values").
const (
	ExtServerName           uint16 = 0
	ExtStatusRequest        uint16 = 5
	ExtSupportedGroups      uint16 = 10
	ExtECPointFormats       uint16 = 11
	ExtSignatureAlgorithms  uint16 = 13
	ExtALPN                 uint16 = 16
	ExtSCT                  uint16 = 18
	ExtPadding              uint16 = 21
	ExtEncryptThenMac       uint16 = 22
	ExtExtendedMasterSecret uint16 = 23
	ExtCompressCertificate  uint16 = 27
	ExtRecordSizeLimit      uint16 = 28
	ExtDelegatedCredentials uint16 = 34
	ExtSessionTicket        uint16 = 35
	ExtPreSharedKey         uint16 = 41
	ExtEarlyData            uint16 = 42
	ExtSupportedVersions    uint16 = 43
	ExtPSKKeyExchangeModes  uint16 = 45
	ExtPostHandshakeAuth    uint16 = 49
	ExtKeyShare             uint16 = 51
	ExtQUICTransportParams  uint16 = 57
	ExtApplicationSettings  uint16 = 17513 // ALPS (draft-vvv-tls-alps)
	ExtRenegotiationInfo    uint16 = 65281
	// ExtEncryptedClientHello is the ECH extension (draft-ietf-tls-esni).
	// When present, the visible server_name is a fronting public name and
	// the real inner hello — SNI included — rides encrypted in its payload,
	// opaque to an on-path observer.
	ExtEncryptedClientHello uint16 = 0xfe0d
)

// TLS protocol version codes.
const (
	VersionTLS10 uint16 = 0x0301
	VersionTLS11 uint16 = 0x0302
	VersionTLS12 uint16 = 0x0303
	VersionTLS13 uint16 = 0x0304
)

// Record and handshake framing constants.
const (
	recordTypeHandshake  = 22
	handshakeClientHello = 1
)

// Errors returned by the parser.
var (
	ErrNotHandshake   = errors.New("tlsproto: not a handshake record")
	ErrNotClientHello = errors.New("tlsproto: not a ClientHello")
	ErrMalformed      = errors.New("tlsproto: malformed ClientHello")
)

// The parser's rejections are pre-built: a tap turns away a half-delivered
// record on every segment of every still-assembling flow, so saying why
// formats nothing and allocates nothing. Each wraps ErrMalformed.
var (
	errRecordTruncated = malformed("record truncated")
	errTruncated       = malformed("handshake message truncated")
	errField           = malformed("field runs past the message")
	errCipherSuites    = malformed("cipher suite length")
	errExtensions      = malformed("extensions length")
	errExtension       = malformed("extension runs past the extensions block")
	errTooManyExts     = malformed("more than 64 extensions")
)

func malformed(what string) error { return fmt.Errorf("%w: %s", ErrMalformed, what) }

// maxExtensions bounds the extensions of one ClientHello. Real hellos carry
// about twenty; the block's 16-bit length alone would allow sixteen thousand
// empty ones, each an Extensions entry the flow then owns.
const maxExtensions = 64

// Extension is one raw TLS extension in wire order.
type Extension struct {
	Type uint16
	Data []byte
}

// ClientHello is a decoded (or to-be-encoded) ClientHello message.
// Extensions preserves the client's wire order, which is itself a
// fingerprinting signal.
type ClientHello struct {
	LegacyVersion      uint16
	Random             [32]byte
	SessionID          []byte
	CipherSuites       []uint16
	CompressionMethods []byte
	Extensions         []Extension

	// HandshakeLength and ExtensionsLength are the lengths observed on the
	// wire when parsed (attributes m1 and m5 of the paper); SetLengths fills
	// them in for generated hellos.
	HandshakeLength  int
	ExtensionsLength int
}

// Extension returns the first extension of the given type and whether it is
// present.
func (ch *ClientHello) Extension(typ uint16) (Extension, bool) {
	for _, e := range ch.Extensions {
		if e.Type == typ {
			return e, true
		}
	}
	return Extension{}, false
}

// HasExtension reports whether an extension type is present.
func (ch *ClientHello) HasExtension(typ uint16) bool {
	_, ok := ch.Extension(typ)
	return ok
}

// ExtensionTypes returns the extension type codes in wire order.
func (ch *ClientHello) ExtensionTypes() []uint16 {
	types := make([]uint16, len(ch.Extensions))
	for i, e := range ch.Extensions {
		types[i] = e.Type
	}
	return types
}

// ServerName returns the host_name entry of the server_name extension.
func (ch *ClientHello) ServerName() string {
	e, ok := ch.Extension(ExtServerName)
	if !ok {
		return ""
	}
	r := wire.NewReader(e.Data)
	listLen, err := r.Uint16()
	if err != nil || int(listLen) > r.Len() {
		return ""
	}
	for r.Len() > 0 {
		nameType, err := r.Uint8()
		if err != nil {
			return ""
		}
		nameLen, err := r.Uint16()
		if err != nil {
			return ""
		}
		name, err := r.Bytes(int(nameLen))
		if err != nil {
			return ""
		}
		if nameType == 0 {
			return string(name)
		}
	}
	return ""
}

// The accessors below serve callers outside the attribute pipeline: JA3
// and inspection tools. The attribute pipeline locates extensions itself
// and runs the Extension body parsers of append.go.

// SupportedGroups returns the named-group list, or nil if absent.
func (ch *ClientHello) SupportedGroups() []uint16 {
	e, _ := ch.Extension(ExtSupportedGroups)
	return e.AppendUint16List(nil)
}

// ECPointFormats returns the point-format list, or nil if absent.
func (ch *ClientHello) ECPointFormats() []byte {
	e, _ := ch.Extension(ExtECPointFormats)
	return e.U8PrefixedBytes()
}

// ALPNProtocols returns the ALPN protocol names in preference order.
func (ch *ClientHello) ALPNProtocols() []string {
	e, _ := ch.Extension(ExtALPN)
	var out []string
	for _, name := range e.AppendALPN(nil) {
		out = append(out, string(name))
	}
	return out
}

// CompressCertificateAlgorithms returns the certificate-compression
// algorithm list (e.g. 1=zlib, 2=brotli, 3=zstd).
func (ch *ClientHello) CompressCertificateAlgorithms() []uint16 {
	e, _ := ch.Extension(ExtCompressCertificate)
	return e.AppendU8Uint16List(nil)
}

// RecordSizeLimit returns the record_size_limit value, or 0 if absent.
func (ch *ClientHello) RecordSizeLimit() uint16 {
	e, ok := ch.Extension(ExtRecordSizeLimit)
	if !ok || len(e.Data) != 2 {
		return 0
	}
	return uint16(e.Data[0])<<8 | uint16(e.Data[1])
}

// Parse decodes a ClientHello handshake message (starting at the handshake
// header, i.e. after any TLS record framing) into a new ClientHello: see
// ParseInto. An accepted hello costs at most three allocations — the
// ClientHello, and its cipher suite and extension lists when not empty —
// and a rejected message none.
func Parse(msg []byte) (*ClientHello, error) {
	var ch ClientHello
	if err := ch.ParseInto(msg); err != nil {
		return nil, err
	}
	out := ch // only an accepted hello reaches the heap
	return &out, nil
}

// ParseInto decodes a ClientHello handshake message into ch, overwriting
// every field. The hello's slices alias msg, but for CipherSuites and
// Extensions, which are written into ch's own lists when they have the
// capacity and allocated once at their exact size when they do not (the
// message is validated whole, the extensions block counted, before
// anything is written). So a caller that parses hello after hello into one
// ClientHello allocates nothing once its lists have grown. On error ch is
// left as it was and may be parsed into again.
func (ch *ClientHello) ParseInto(msg []byte) error {
	r := wire.NewReader(msg)
	typ, err := r.Uint8()
	if err != nil {
		return errTruncated
	}
	if typ != handshakeClientHello {
		return ErrNotClientHello
	}
	bodyLen, err := r.Uint24()
	if err != nil {
		return errTruncated
	}
	body, err := r.Bytes(int(bodyLen))
	if err != nil {
		return errTruncated
	}
	br := wire.NewReader(body)

	version, err := br.Uint16()
	if err != nil {
		return errField
	}
	random, err := br.Bytes(32)
	if err != nil {
		return errField
	}
	sidLen, err := br.Uint8()
	if err != nil {
		return errField
	}
	sessionID, err := br.Bytes(int(sidLen))
	if err != nil {
		return errField
	}

	csLen, err := br.Uint16()
	if err != nil || csLen%2 != 0 {
		return errCipherSuites
	}
	suites, err := br.Bytes(int(csLen))
	if err != nil {
		return errCipherSuites
	}

	cmLen, err := br.Uint8()
	if err != nil {
		return errField
	}
	compression, err := br.Bytes(int(cmLen))
	if err != nil {
		return errField
	}

	var exts []byte
	if !br.Empty() { // extensions are optional in TLS <= 1.2
		extLen, err := br.Uint16()
		if err != nil {
			return errExtensions
		}
		if exts, err = br.Bytes(int(extLen)); err != nil {
			return errExtensions
		}
	}
	// Pass one: every extension lies inside the block, and how many.
	n := 0
	for er := wire.NewReader(exts); !er.Empty(); n++ {
		if n == maxExtensions {
			return errTooManyExts
		}
		if er.Skip(2) != nil {
			return errExtension
		}
		dataLen, err := er.Uint16()
		if err != nil || er.Skip(int(dataLen)) != nil {
			return errExtension
		}
	}

	// Accepted: from here on nothing fails, and ch is written.
	old := ch.Extensions
	*ch = ClientHello{
		LegacyVersion:      version,
		SessionID:          sessionID,
		CipherSuites:       resize(ch.CipherSuites, len(suites)/2),
		CompressionMethods: compression,
		Extensions:         resize(old, n),
		HandshakeLength:    int(bodyLen),
		ExtensionsLength:   len(exts),
	}
	copy(ch.Random[:], random)
	for i := range ch.CipherSuites {
		ch.CipherSuites[i] = binary.BigEndian.Uint16(suites[2*i:])
	}
	// Pass two: the reads cannot fail.
	er := wire.NewReader(exts)
	for i := range ch.Extensions {
		e := &ch.Extensions[i]
		e.Type, _ = er.Uint16()
		dataLen, _ := er.Uint16()
		e.Data, _ = er.Bytes(int(dataLen))
	}
	if len(old) > n {
		clear(old[n:]) // what an earlier, longer hello left: it must not hold that hello's bytes
	}
	return nil
}

// resize returns s with n elements: in its own array when that has the
// capacity, else in a new one of exactly n. (slices.Grow rounds the new
// array up, and under the race detector allocates it twice.)
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// recordHeaderLen is a TLS record's header: type, legacy version, length.
const recordHeaderLen = 5

// ParseRecord decodes a ClientHello wrapped in TLS records, as found at the
// start of a TCP connection's client byte stream. It first walks the record
// headers (and the 4-byte handshake header inside the first fragments) to
// decide, without copying or parsing anything, between three outcomes: the
// stream does not start with a handshake record (ErrNotHandshake), the
// hello is not all here yet (an ErrMalformed — offer the stream again with
// more bytes), or it is complete. Only a complete hello is parsed. One that
// sits in a single record — every real one; records hold 16 KB — is parsed
// where it lies, so the returned slices alias stream; one split across
// records is first reassembled into a buffer of its own. The hello is
// written into a new ClientHello, as Parse does, and a rejected stream
// allocates nothing.
func ParseRecord(stream []byte) (*ClientHello, error) {
	var ch ClientHello
	if err := ch.ParseRecordInto(stream); err != nil {
		return nil, err
	}
	out := ch
	return &out, nil
}

// ParseRecordInto is ParseRecord writing the hello into ch, as ParseInto
// does.
func (ch *ClientHello) ParseRecordInto(stream []byte) error {
	var hdr [4]byte      // the handshake header, which may itself span records
	have, want := 0, -1  // handshake bytes framed so far; message length once hdr is whole
	off, records := 0, 0 // end of the last complete record; how many
	for want < 0 || have < want {
		rest := stream[off:]
		if len(rest) > 0 && rest[0] != recordTypeHandshake {
			return ErrNotHandshake // decided on the type byte alone
		}
		if len(rest) < recordHeaderLen {
			return errRecordTruncated
		}
		n := int(rest[3])<<8 | int(rest[4])
		if len(rest)-recordHeaderLen < n {
			return errRecordTruncated
		}
		if have < len(hdr) {
			copy(hdr[have:], rest[recordHeaderLen:recordHeaderLen+n])
			if have+n >= len(hdr) {
				want = len(hdr) + (int(hdr[1])<<16 | int(hdr[2])<<8 | int(hdr[3]))
			}
		}
		have += n
		off += recordHeaderLen + n
		records++
	}
	if records == 1 {
		return ch.ParseInto(stream[recordHeaderLen : recordHeaderLen+want])
	}
	msg := make([]byte, 0, have)
	for off = 0; len(msg) < want; {
		n := int(stream[off+3])<<8 | int(stream[off+4])
		msg = append(msg, stream[off+recordHeaderLen:off+recordHeaderLen+n]...)
		off += recordHeaderLen + n
	}
	return ch.ParseInto(msg[:want])
}

// SetLengths sets HandshakeLength and ExtensionsLength to the sizes the hello
// encodes to, without encoding it.
func (ch *ClientHello) SetLengths() {
	exts := 0
	for _, e := range ch.Extensions {
		exts += 4 + len(e.Data)
	}
	n := 2 + len(ch.Random) + 1 + len(ch.SessionID) + 2 + 2*len(ch.CipherSuites) + 1 + len(ch.CompressionMethods)
	if len(ch.Extensions) > 0 {
		n += 2 + exts
	}
	ch.ExtensionsLength, ch.HandshakeLength = exts, n
}

// appendHandshake appends the ClientHello as a handshake message (handshake
// header included, no record framing) to dst. Each length prefix is written
// once the bytes it counts are in place.
func (ch *ClientHello) appendHandshake(dst []byte) []byte {
	be := binary.BigEndian
	msg := len(dst)
	dst = append(dst, handshakeClientHello, 0, 0, 0)
	dst = be.AppendUint16(dst, ch.LegacyVersion)
	dst = append(dst, ch.Random[:]...)
	dst = append(dst, uint8(len(ch.SessionID)))
	dst = append(dst, ch.SessionID...)
	dst = be.AppendUint16(dst, uint16(2*len(ch.CipherSuites)))
	for _, cs := range ch.CipherSuites {
		dst = be.AppendUint16(dst, cs)
	}
	dst = append(dst, uint8(len(ch.CompressionMethods)))
	dst = append(dst, ch.CompressionMethods...)
	if len(ch.Extensions) > 0 {
		exts := len(dst)
		dst = append(dst, 0, 0)
		for _, e := range ch.Extensions {
			dst = be.AppendUint16(dst, e.Type)
			dst = be.AppendUint16(dst, uint16(len(e.Data)))
			dst = append(dst, e.Data...)
		}
		be.PutUint16(dst[exts:], uint16(len(dst)-exts-2))
	}
	n := len(dst) - msg - 4
	dst[msg+1], dst[msg+2], dst[msg+3] = byte(n>>16), byte(n>>8), byte(n)
	return dst
}

// appendRecord appends the ClientHello wrapped in a single TLS record, with
// the legacy record version 0x0301 real clients emit, to dst.
func (ch *ClientHello) appendRecord(dst []byte) []byte {
	rec := len(dst)
	dst = append(dst, recordTypeHandshake, byte(VersionTLS10>>8), byte(VersionTLS10&0xff), 0, 0)
	dst = ch.appendHandshake(dst)
	binary.BigEndian.PutUint16(dst[rec+3:], uint16(len(dst)-rec-recordHeaderLen))
	return dst
}

// Marshal encodes the ClientHello as a handshake message (appendHandshake)
// and sets HandshakeLength and ExtensionsLength (SetLengths).
func (ch *ClientHello) Marshal() []byte {
	ch.SetLengths()
	return ch.appendHandshake(make([]byte, 0, 4+ch.HandshakeLength))
}

// MarshalRecord encodes the ClientHello as one TLS record (appendRecord) and
// sets HandshakeLength and ExtensionsLength (SetLengths).
func (ch *ClientHello) MarshalRecord() []byte {
	ch.SetLengths()
	return ch.appendRecord(make([]byte, 0, recordHeaderLen+4+ch.HandshakeLength))
}
