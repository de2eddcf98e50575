package tlsproto

import "encoding/binary"

// Helpers to construct extension bodies. Each returns the Data field of an
// Extension; combine with the type constants to assemble a ClientHello.

// ServerNameData builds a server_name extension body for host.
func ServerNameData(host string) []byte {
	b := binary.BigEndian.AppendUint16(make([]byte, 0, 5+len(host)), uint16(3+len(host)))
	b = append(b, 0) // host_name
	b = binary.BigEndian.AppendUint16(b, uint16(len(host)))
	return append(b, host...)
}

// StatusRequestData builds an OCSP status_request body.
func StatusRequestData() []byte {
	return []byte{1, 0, 0, 0, 0} // ocsp, empty responder list, empty exts
}

// Uint16ListData builds a body holding a 16-bit-length-prefixed list of
// 16-bit values (supported_groups, signature_algorithms, delegated_credentials).
func Uint16ListData(values []uint16) []byte {
	b := binary.BigEndian.AppendUint16(make([]byte, 0, 2+2*len(values)), uint16(2*len(values)))
	for _, v := range values {
		b = binary.BigEndian.AppendUint16(b, v)
	}
	return b
}

// ECPointFormatsData builds an ec_point_formats body.
func ECPointFormatsData(formats []byte) []byte {
	return append([]byte{uint8(len(formats))}, formats...)
}

// ALPNData builds an ALPN (or ALPS) body from protocol names.
func ALPNData(protocols []string) []byte {
	b := make([]byte, 2, 16)
	for _, p := range protocols {
		b = append(b, uint8(len(p)))
		b = append(b, p...)
	}
	binary.BigEndian.PutUint16(b, uint16(len(b)-2))
	return b
}

// SupportedVersionsData builds a supported_versions body.
func SupportedVersionsData(versions []uint16) []byte {
	b := append(make([]byte, 0, 1+2*len(versions)), uint8(2*len(versions)))
	for _, v := range versions {
		b = binary.BigEndian.AppendUint16(b, v)
	}
	return b
}

// PSKKeyExchangeModesData builds a psk_key_exchange_modes body.
func PSKKeyExchangeModesData(modes []byte) []byte {
	return append([]byte{uint8(len(modes))}, modes...)
}

// KeyShareData builds a key_share body with a zero-filled (structurally
// valid) public key of the given length per group.
func KeyShareData(groups []uint16, keyLens []int) []byte {
	b := make([]byte, 2, 64)
	for i, g := range groups {
		n := 32
		if i < len(keyLens) {
			n = keyLens[i]
		}
		b = binary.BigEndian.AppendUint16(b, g)
		b = binary.BigEndian.AppendUint16(b, uint16(n))
		b = append(b, make([]byte, n)...)
	}
	binary.BigEndian.PutUint16(b, uint16(len(b)-2))
	return b
}

// CompressCertificateData builds a compress_certificate body.
func CompressCertificateData(algorithms []uint16) []byte {
	b := append(make([]byte, 0, 1+2*len(algorithms)), uint8(2*len(algorithms)))
	for _, a := range algorithms {
		b = binary.BigEndian.AppendUint16(b, a)
	}
	return b
}

// RecordSizeLimitData builds a record_size_limit body.
func RecordSizeLimitData(limit uint16) []byte {
	return []byte{byte(limit >> 8), byte(limit)}
}

// PaddingData builds a padding body of n zero bytes.
func PaddingData(n int) []byte { return make([]byte, n) }

// RenegotiationInfoData builds an initial-handshake renegotiation_info body.
func RenegotiationInfoData() []byte { return []byte{0} }
