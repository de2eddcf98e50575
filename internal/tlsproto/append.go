package tlsproto

import "videoplat/internal/wire"

// Append-style accessors for the list-valued extension bodies. They parse
// exactly like their slice-returning counterparts (which delegate to them)
// but append into a caller-provided buffer, so a hot serving path can reuse
// one scratch slice per worker and walk extension lists without allocating.
// The returned slice is buf extended with the parsed values; when the
// extension is absent, buf is returned unchanged. Malformed bodies yield the
// same (possibly partial) value sequence the original accessors produced.
//
// Each body parser is a method on Extension, for callers that have already
// located the extension (the compiled encoder indexes a hello's extensions
// once); the ClientHello methods find the first extension of the type and
// delegate.

// AppendUint16List appends the values of a 2-byte-length-prefixed uint16
// list extension (supported_groups, signature_algorithms,
// delegated_credentials) to buf.
func (ch *ClientHello) AppendUint16List(typ uint16, buf []uint16) []uint16 {
	e, _ := ch.Extension(typ)
	return e.AppendUint16List(buf)
}

// AppendUint16List appends the body's 2-byte-length-prefixed uint16 list.
func (e Extension) AppendUint16List(buf []uint16) []uint16 {
	r := wire.NewReader(e.Data)
	listLen, err := r.Uint16()
	if err != nil || int(listLen) > r.Len() {
		return buf
	}
	return appendUint16s(buf, r, int(listLen)/2)
}

// AppendSupportedVersions appends the offered TLS versions to buf.
func (ch *ClientHello) AppendSupportedVersions(buf []uint16) []uint16 {
	e, _ := ch.Extension(ExtSupportedVersions)
	return e.AppendU8Uint16List(buf)
}

// AppendCompressCertAlgorithms appends the certificate-compression algorithm
// codes to buf.
func (ch *ClientHello) AppendCompressCertAlgorithms(buf []uint16) []uint16 {
	e, _ := ch.Extension(ExtCompressCertificate)
	return e.AppendU8Uint16List(buf)
}

// AppendU8Uint16List appends the body's 1-byte-length-prefixed uint16 list
// (supported_versions, compress_certificate).
func (e Extension) AppendU8Uint16List(buf []uint16) []uint16 {
	r := wire.NewReader(e.Data)
	n, err := r.Uint8()
	if err != nil || int(n) > r.Len() {
		return buf
	}
	return appendUint16s(buf, r, int(n)/2)
}

func appendUint16s(buf []uint16, r *wire.Reader, n int) []uint16 {
	for i := 0; i < n; i++ {
		v, err := r.Uint16()
		if err != nil {
			return buf
		}
		buf = append(buf, v)
	}
	return buf
}

// AppendKeyShareGroups appends the named groups for which key shares are
// offered to buf, skipping the key material.
func (ch *ClientHello) AppendKeyShareGroups(buf []uint16) []uint16 {
	e, _ := ch.Extension(ExtKeyShare)
	return e.AppendKeyShareGroups(buf)
}

// AppendKeyShareGroups appends the named groups of a key_share body.
func (e Extension) AppendKeyShareGroups(buf []uint16) []uint16 {
	r := wire.NewReader(e.Data)
	listLen, err := r.Uint16()
	if err != nil || int(listLen) > r.Len() {
		return buf
	}
	for r.Len() >= 4 {
		group, err := r.Uint16()
		if err != nil {
			return buf
		}
		keyLen, err := r.Uint16()
		if err != nil {
			return buf
		}
		if err := r.Skip(int(keyLen)); err != nil {
			return buf
		}
		buf = append(buf, group)
	}
	return buf
}

// U8PrefixedBytes returns the 1-byte-length-prefixed body of an extension
// (ec_point_formats, psk_key_exchange_modes), or nil if the extension is
// absent or truncated. The returned slice aliases the extension data.
func (ch *ClientHello) U8PrefixedBytes(typ uint16) []byte {
	e, _ := ch.Extension(typ)
	return e.U8PrefixedBytes()
}

// U8PrefixedBytes returns the body's 1-byte-length-prefixed byte string, or
// nil if it is truncated.
func (e Extension) U8PrefixedBytes() []byte {
	r := wire.NewReader(e.Data)
	n, err := r.Uint8()
	if err != nil {
		return nil
	}
	b, err := r.Bytes(int(n))
	if err != nil {
		return nil
	}
	return b
}

// AppendALPN appends the protocol names of an ALPN-shaped extension (ALPN
// itself or ALPS/application_settings) to buf. The appended byte slices
// alias the extension data — they are valid as long as the ClientHello's
// backing buffer is.
func (ch *ClientHello) AppendALPN(typ uint16, buf [][]byte) [][]byte {
	e, _ := ch.Extension(typ)
	return e.AppendALPN(buf)
}

// AppendALPN appends the protocol names of an ALPN-shaped body.
func (e Extension) AppendALPN(buf [][]byte) [][]byte {
	r := wire.NewReader(e.Data)
	listLen, err := r.Uint16()
	if err != nil || int(listLen) > r.Len() {
		return buf
	}
	for r.Len() > 0 {
		n, err := r.Uint8()
		if err != nil {
			return buf
		}
		name, err := r.Bytes(int(n))
		if err != nil {
			return buf
		}
		buf = append(buf, name)
	}
	return buf
}
