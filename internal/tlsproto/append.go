package tlsproto

import "videoplat/internal/wire"

// Body parsers for the extensions Table 2 reads, one per body shape, as
// methods on an Extension the caller has already located: the attribute
// extractor looks each one up by type, the compiled encoder indexes a
// hello's extensions once. The list parsers append into a caller-provided
// buffer, so a hot serving path can reuse one scratch slice per worker and
// walk extension lists without allocating. The returned slice is buf
// extended with the parsed values. An absent extension (the zero Extension)
// or a malformed body yields buf unchanged or a partial value sequence,
// never an error.

// AppendUint16List appends the body's 2-byte-length-prefixed uint16 list
// (supported_groups, signature_algorithms, delegated_credentials).
func (e Extension) AppendUint16List(buf []uint16) []uint16 {
	r := wire.NewReader(e.Data)
	listLen, err := r.Uint16()
	if err != nil || int(listLen) > r.Len() {
		return buf
	}
	return appendUint16s(buf, r, int(listLen)/2)
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

// AppendKeyShareGroups appends the named groups of a key_share body, the
// groups for which key shares are offered, skipping the key material.
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

// U8PrefixedBytes returns the body's 1-byte-length-prefixed byte string
// (ec_point_formats, psk_key_exchange_modes), or nil if the extension is
// absent or truncated. The returned slice aliases the extension data.
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

// AppendALPN appends the protocol names of an ALPN-shaped body (ALPN itself
// or ALPS/application_settings). The appended byte slices alias the
// extension data — they are valid as long as the ClientHello's backing
// buffer is.
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
