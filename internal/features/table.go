// Package features formalizes the TCP/QUIC and TLS handshake fields of a
// video flow into the 62 machine-learning attributes of the paper's Table 2.
//
// Table 2 is stated once, as Table2: each row carries the paper's label,
// name, kind and cost, and its wire source — the routine that reads the
// field (a source kind) and the one key it takes (a TLS extension type, a
// QUIC transport-parameter id or a TCP flag bit). Two renderers read those
// rows, mirroring Fig 4's "handshake attribute generator":
//
//  1. ExtractWithOptions renders each row as training's FieldValues: string
//     tokens in three maps keyed by label (numbers, presence bits, byte
//     lengths, categorical tokens and ordered token lists), normalizing
//     GREASE values so Chromium's per-flow random draws do not pollute the
//     value space. It is human-readable, diffable, what Encoder.Fit consumes
//     and what cmd/vpextract prints, and it allocates freely (every token is
//     a formatted string), which is fine off the hot path. Encoder fits
//     per-attribute vocabularies on it and Transform maps it to fixed-width
//     vectors: categorical tokens become dictionary indices and list
//     attributes fixed-length positional vectors with zero padding, exactly
//     as §4.2.1 describes.
//  2. CompiledEncoder (see Compile) is the serving path and never builds
//     FieldValues. It lowers a fitted Encoder into a dense slot table:
//     numeric/presence/length slots are written straight from parsed header
//     fields, and categorical/list tokens resolve through interned lookup
//     tables keyed on raw wire values (cipher-suite uint16s, extension ids,
//     QUIC transport-parameter ids, raw extension bytes) instead of
//     formatting strings. EncodeInto writes into a caller-owned []float64
//     with an EncodeScratch for its temporary buffers, making the steady
//     state allocation-free.
//
// The two renderers are independent implementations of each source kind and
// element-identical by contract on the columns a CompiledEncoder was
// compiled live for — there EncodeInto(dst, info, sc) equals
// Transform(ExtractWithOptions(info, opts)), and every other column is zero
// — pinned by the golden-equivalence tests here and at the bank level and by
// FuzzEncodeMatchesExtract.
//
// Reuse rules: a CompiledEncoder is immutable and safe to share across
// goroutines; an EncodeScratch and the dst vector are per-goroutine. Only
// serialization-facing state lives in the Encoder (attribute labels plus
// vocabularies, gob-encoded by MarshalBinary); compiled tables are derived
// on load, so serialized encoders — and therefore serialized pipeline banks
// — are bit-compatible with builds that predate compilation.
package features

import (
	"videoplat/internal/quicproto"
	"videoplat/internal/tlsproto"
)

// Kind is the attribute's encoding type (the "Attribute type" column of
// Table 2).
type Kind uint8

// Attribute kinds.
const (
	Numerical Kind = iota
	Categorical
	List
	Presence
	Length
)

// String names the kind as in the paper.
func (k Kind) String() string {
	switch k {
	case Numerical:
		return "numerical"
	case Categorical:
		return "categorical"
	case List:
		return "list"
	case Presence:
		return "presence"
	default:
		return "length"
	}
}

// Cost is the preprocessing cost tier (the "Attribute cost" column).
type Cost uint8

// Preprocessing cost tiers of §4.2.1: numerical/presence/length attributes
// are taken directly from header fields (low); categorical attributes need
// one dictionary lookup (medium); list attributes need a lookup per item
// (high).
const (
	Low Cost = iota
	Medium
	High
)

// String names the cost tier.
func (c Cost) String() string {
	switch c {
	case Low:
		return "low"
	case Medium:
		return "medium"
	default:
		return "high"
	}
}

// Scope restricts an attribute to a transport.
type Scope uint8

// Attribute scopes (the "Transport protocol" column).
const (
	Both Scope = iota
	TCPOnly
	QUICOnly
)

// source is where on the wire an attribute's value lives: the one routine
// that reads it, which a row's key parameterizes. Both renderers switch on
// it: ExtractWithOptions renders the field as training's string tokens,
// CompiledEncoder.EncodeInto resolves its raw value for serving.
type source uint8

const (
	opNone source = iota // a zero Attribute reads nothing

	// Flow and TCP SYN fields. opTCPFlag's key is the flag's bit.
	opInitPacketSize
	opTTL
	opTCPFlag
	opTCPWindow
	opTCPMSS
	opTCPWScale
	opTCPSACK

	// ClientHello fields, absent when the flow has no hello.
	opHandshakeLength
	opLegacyVersion
	opCipherSuites
	opCompressionLen
	opExtensionsLength
	opExtTypes

	// One extension's body; the key is the TLS extension type.
	opExtLen
	opStatusRequest
	opU16List
	opU8BytesCat
	opALPN
	opPresence
	opCompressCert
	opRecordSizeLimit
	opSupportedVersions
	opKeyShare

	// QUIC transport parameters, absent when the hello carries none; the
	// key is the parameter id (q1 lists them all and has none).
	opQParamIDs
	opQUint
	opQPresence
	opQLen
	opQCat
	opQBytesCat
)

func (s source) fromHello() bool   { return s >= opHandshakeLength }
func (s source) readsExt() bool    { return s >= opExtLen && s < opQParamIDs }
func (s source) readsParams() bool { return s >= opQParamIDs }

// Attribute is one row of Table 2.
type Attribute struct {
	Label string // t1..t14, m1..m5, o1..o23, q1..q20
	Name  string // handshake field name
	Kind  Kind
	Cost  Cost
	Scope Scope
	// Width is the expanded vector width: 1 except for list attributes,
	// which become fixed-length positional vectors.
	Width int

	src source // the field's wire source
	key uint64 // extension type, transport-parameter id or TCP flag bit
}

// Table2 lists all 62 attributes in paper order, each with its wire source.
var Table2 = []Attribute{
	{"t1", "init_packet_size", Numerical, Low, Both, 1, opInitPacketSize, 0},
	{"t2", "ttl", Numerical, Low, Both, 1, opTTL, 0},
	{"t3", "tcp_cwr", Presence, Low, TCPOnly, 1, opTCPFlag, 1 << 7},
	{"t4", "tcp_ece", Presence, Low, TCPOnly, 1, opTCPFlag, 1 << 6},
	{"t5", "tcp_urg", Presence, Low, TCPOnly, 1, opTCPFlag, 1 << 5},
	{"t6", "tcp_ack", Presence, Low, TCPOnly, 1, opTCPFlag, 1 << 4},
	{"t7", "tcp_psh", Presence, Low, TCPOnly, 1, opTCPFlag, 1 << 3},
	{"t8", "tcp_rst", Presence, Low, TCPOnly, 1, opTCPFlag, 1 << 2},
	{"t9", "tcp_syn", Presence, Low, TCPOnly, 1, opTCPFlag, 1 << 1},
	{"t10", "tcp_fin", Presence, Low, TCPOnly, 1, opTCPFlag, 1 << 0},
	{"t11", "tcp_window_size", Numerical, Low, TCPOnly, 1, opTCPWindow, 0},
	{"t12", "tcp_mss", Numerical, Low, TCPOnly, 1, opTCPMSS, 0},
	{"t13", "tcp_window_scale", Numerical, Low, TCPOnly, 1, opTCPWScale, 0},
	{"t14", "tcp_sack_permitted", Presence, Low, TCPOnly, 1, opTCPSACK, 0},

	{"m1", "handshake_length", Numerical, Low, Both, 1, opHandshakeLength, 0},
	{"m2", "tls_version", Categorical, Medium, Both, 1, opLegacyVersion, 0},
	{"m3", "cipher_suites", List, High, Both, 24, opCipherSuites, 0},
	{"m4", "compression_methods", Length, Low, Both, 1, opCompressionLen, 0},
	{"m5", "extensions_length", Numerical, Low, Both, 1, opExtensionsLength, 0},

	{"o1", "tls_extensions", List, High, Both, 24, opExtTypes, 0},
	{"o2", "server_name", Length, Low, Both, 1, opExtLen, uint64(tlsproto.ExtServerName)},
	{"o3", "status_request", Categorical, Medium, Both, 1, opStatusRequest, uint64(tlsproto.ExtStatusRequest)},
	{"o4", "supported_groups", List, High, Both, 8, opU16List, uint64(tlsproto.ExtSupportedGroups)},
	{"o5", "ec_point_formats", Categorical, Medium, Both, 1, opU8BytesCat, uint64(tlsproto.ExtECPointFormats)},
	{"o6", "signature_algorithms", List, High, Both, 16, opU16List, uint64(tlsproto.ExtSignatureAlgorithms)},
	{"o7", "application_layer_protocol_negotiation", List, High, Both, 4, opALPN, uint64(tlsproto.ExtALPN)},
	{"o8", "signed_certificate_timestamp", Length, Low, Both, 1, opExtLen, uint64(tlsproto.ExtSCT)},
	{"o9", "padding", Length, Low, Both, 1, opExtLen, uint64(tlsproto.ExtPadding)},
	{"o10", "encrypt_then_mac", Presence, Low, Both, 1, opPresence, uint64(tlsproto.ExtEncryptThenMac)},
	{"o11", "extended_master_secret", Presence, Low, Both, 1, opPresence, uint64(tlsproto.ExtExtendedMasterSecret)},
	{"o12", "compress_certificate", Categorical, Medium, Both, 1, opCompressCert, uint64(tlsproto.ExtCompressCertificate)},
	{"o13", "record_size_limit", Numerical, Low, Both, 1, opRecordSizeLimit, uint64(tlsproto.ExtRecordSizeLimit)},
	{"o14", "delegated_credentials", List, High, Both, 8, opU16List, uint64(tlsproto.ExtDelegatedCredentials)},
	{"o15", "session_ticket", Length, Low, Both, 1, opExtLen, uint64(tlsproto.ExtSessionTicket)},
	{"o16", "pre_shared_key", Presence, Low, Both, 1, opPresence, uint64(tlsproto.ExtPreSharedKey)},
	{"o17", "early_data", Length, Low, Both, 1, opExtLen, uint64(tlsproto.ExtEarlyData)},
	{"o18", "supported_versions", List, High, Both, 4, opSupportedVersions, uint64(tlsproto.ExtSupportedVersions)},
	{"o19", "psk_key_exchange_modes", Categorical, Medium, Both, 1, opU8BytesCat, uint64(tlsproto.ExtPSKKeyExchangeModes)},
	{"o20", "post_handshake_auth", Presence, Low, Both, 1, opPresence, uint64(tlsproto.ExtPostHandshakeAuth)},
	{"o21", "key_share", List, High, Both, 4, opKeyShare, uint64(tlsproto.ExtKeyShare)},
	{"o22", "application_settings", List, High, Both, 2, opALPN, uint64(tlsproto.ExtApplicationSettings)},
	{"o23", "renegotiation_info", Presence, Low, Both, 1, opPresence, uint64(tlsproto.ExtRenegotiationInfo)},

	{"q1", "quic_parameters", List, High, QUICOnly, 20, opQParamIDs, 0},
	{"q2", "max_idle_timeout", Numerical, Low, QUICOnly, 1, opQUint, quicproto.ParamMaxIdleTimeout},
	{"q3", "max_udp_payload_size", Numerical, Low, QUICOnly, 1, opQUint, quicproto.ParamMaxUDPPayloadSize},
	{"q4", "initial_max_data", Numerical, Low, QUICOnly, 1, opQUint, quicproto.ParamInitialMaxData},
	{"q5", "initial_max_stream_data_bidi_local", Numerical, Low, QUICOnly, 1, opQUint, quicproto.ParamInitialMaxStreamDataBidiLocal},
	{"q6", "initial_max_stream_data_bidi_remote", Numerical, Low, QUICOnly, 1, opQUint, quicproto.ParamInitialMaxStreamDataBidiRemote},
	{"q7", "initial_max_stream_data_uni", Numerical, Low, QUICOnly, 1, opQUint, quicproto.ParamInitialMaxStreamDataUni},
	{"q8", "initial_max_streams_bidi", Numerical, Low, QUICOnly, 1, opQUint, quicproto.ParamInitialMaxStreamsBidi},
	{"q9", "initial_max_streams_uni", Numerical, Low, QUICOnly, 1, opQUint, quicproto.ParamInitialMaxStreamsUni},
	{"q10", "max_ack_delay", Numerical, Low, QUICOnly, 1, opQUint, quicproto.ParamMaxAckDelay},
	{"q11", "disable_active_migration", Presence, Low, QUICOnly, 1, opQPresence, quicproto.ParamDisableActiveMigration},
	{"q12", "active_connection_id_limit", Numerical, Low, QUICOnly, 1, opQUint, quicproto.ParamActiveConnectionIDLimit},
	{"q13", "initial_source_connection_id", Length, Low, QUICOnly, 1, opQLen, quicproto.ParamInitialSourceConnectionID},
	{"q14", "max_datagram_frame_size", Numerical, Low, QUICOnly, 1, opQUint, quicproto.ParamMaxDatagramFrameSize},
	{"q15", "grease_quic_bit", Presence, Low, QUICOnly, 1, opQPresence, quicproto.ParamGreaseQuicBit},
	{"q16", "initial_rtt", Presence, Low, QUICOnly, 1, opQPresence, quicproto.ParamInitialRTT},
	{"q17", "google_connection_options", Categorical, Medium, QUICOnly, 1, opQCat, quicproto.ParamGoogleConnectionOptions},
	{"q18", "user_agent", Categorical, Medium, QUICOnly, 1, opQCat, quicproto.ParamUserAgent},
	{"q19", "google_version", Categorical, Medium, QUICOnly, 1, opQCat, quicproto.ParamGoogleVersion},
	{"q20", "version_information", Categorical, Medium, QUICOnly, 1, opQBytesCat, quicproto.ParamVersionInformation},
}

// ForTransport returns the attributes applicable to the given transport:
// 42 for TCP, 50 for QUIC (the paper's "only 50 are applicable to QUIC").
func ForTransport(quic bool) []Attribute {
	var out []Attribute
	for _, a := range Table2 {
		switch a.Scope {
		case Both:
			out = append(out, a)
		case TCPOnly:
			if !quic {
				out = append(out, a)
			}
		case QUICOnly:
			if quic {
				out = append(out, a)
			}
		}
	}
	return out
}

// transportRows holds ForTransport's answers for ExtractWithOptions, which
// walks one per flow.
var transportRows = map[bool][]Attribute{false: ForTransport(false), true: ForTransport(true)}
