// Package features formalizes the TCP/QUIC and TLS handshake fields of a
// video flow into the 62 machine-learning attributes of the paper's Table 2.
//
// Extraction happens in two stages, mirroring Fig 4's "handshake attribute
// generator":
//
//  1. Extract pulls typed field values out of a flow's handshake messages
//     (numbers, presence bits, byte lengths, categorical tokens and ordered
//     token lists), normalizing GREASE values so Chromium's per-flow random
//     draws do not pollute the value space.
//  2. Encoder fits per-attribute vocabularies on a training set and
//     transforms field values into fixed-width numeric vectors: categorical
//     tokens become dictionary indices and list attributes become
//     fixed-length positional vectors with zero padding, exactly as §4.2.1
//     describes.
//
// # Two representations: training FieldValues vs the compiled serving path
//
// FieldValues — string tokens in three maps keyed by Table 2 label — is the
// training and experiments representation: human-readable, diffable, what
// Encoder.Fit consumes and what cmd/vpextract prints. It allocates freely
// (every token is a formatted string) and that is fine off the hot path.
//
// The serving path never builds it. CompiledEncoder (see Compile) lowers a
// fitted Encoder into a dense slot table: numeric/presence/length slots are
// written straight from parsed header fields, and categorical/list tokens
// resolve through interned lookup tables keyed on raw wire values
// (cipher-suite uint16s, extension ids, QUIC transport-parameter ids, raw
// extension bytes) instead of formatting strings. EncodeInto writes into a
// caller-owned []float64 with an EncodeScratch for its temporary buffers,
// making the steady state allocation-free. The two paths are element-
// identical by contract — EncodeInto(dst, info, sc) equals
// Transform(ExtractWithOptions(info, opts)) — pinned by the golden-
// equivalence tests here and at the bank level.
//
// Reuse rules: a CompiledEncoder is immutable and safe to share across
// goroutines; an EncodeScratch and the dst vector are per-goroutine. Only
// serialization-facing state lives in the Encoder (attribute labels plus
// vocabularies, gob-encoded by MarshalBinary); compiled tables are derived
// on load, so serialized encoders — and therefore serialized pipeline banks
// — are bit-compatible with builds that predate compilation.
package features

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
}

// Table2 lists all 62 attributes in paper order.
var Table2 = []Attribute{
	{"t1", "init_packet_size", Numerical, Low, Both, 1},
	{"t2", "ttl", Numerical, Low, Both, 1},
	{"t3", "tcp_cwr", Presence, Low, TCPOnly, 1},
	{"t4", "tcp_ece", Presence, Low, TCPOnly, 1},
	{"t5", "tcp_urg", Presence, Low, TCPOnly, 1},
	{"t6", "tcp_ack", Presence, Low, TCPOnly, 1},
	{"t7", "tcp_psh", Presence, Low, TCPOnly, 1},
	{"t8", "tcp_rst", Presence, Low, TCPOnly, 1},
	{"t9", "tcp_syn", Presence, Low, TCPOnly, 1},
	{"t10", "tcp_fin", Presence, Low, TCPOnly, 1},
	{"t11", "tcp_window_size", Numerical, Low, TCPOnly, 1},
	{"t12", "tcp_mss", Numerical, Low, TCPOnly, 1},
	{"t13", "tcp_window_scale", Numerical, Low, TCPOnly, 1},
	{"t14", "tcp_sack_permitted", Presence, Low, TCPOnly, 1},

	{"m1", "handshake_length", Numerical, Low, Both, 1},
	{"m2", "tls_version", Categorical, Medium, Both, 1},
	{"m3", "cipher_suites", List, High, Both, 24},
	{"m4", "compression_methods", Length, Low, Both, 1},
	{"m5", "extensions_length", Numerical, Low, Both, 1},

	{"o1", "tls_extensions", List, High, Both, 24},
	{"o2", "server_name", Length, Low, Both, 1},
	{"o3", "status_request", Categorical, Medium, Both, 1},
	{"o4", "supported_groups", List, High, Both, 8},
	{"o5", "ec_point_formats", Categorical, Medium, Both, 1},
	{"o6", "signature_algorithms", List, High, Both, 16},
	{"o7", "application_layer_protocol_negotiation", List, High, Both, 4},
	{"o8", "signed_certificate_timestamp", Length, Low, Both, 1},
	{"o9", "padding", Length, Low, Both, 1},
	{"o10", "encrypt_then_mac", Presence, Low, Both, 1},
	{"o11", "extended_master_secret", Presence, Low, Both, 1},
	{"o12", "compress_certificate", Categorical, Medium, Both, 1},
	{"o13", "record_size_limit", Numerical, Low, Both, 1},
	{"o14", "delegated_credentials", List, High, Both, 8},
	{"o15", "session_ticket", Length, Low, Both, 1},
	{"o16", "pre_shared_key", Presence, Low, Both, 1},
	{"o17", "early_data", Length, Low, Both, 1},
	{"o18", "supported_versions", List, High, Both, 4},
	{"o19", "psk_key_exchange_modes", Categorical, Medium, Both, 1},
	{"o20", "post_handshake_auth", Presence, Low, Both, 1},
	{"o21", "key_share", List, High, Both, 4},
	{"o22", "application_settings", List, High, Both, 2},
	{"o23", "renegotiation_info", Presence, Low, Both, 1},

	{"q1", "quic_parameters", List, High, QUICOnly, 20},
	{"q2", "max_idle_timeout", Numerical, Low, QUICOnly, 1},
	{"q3", "max_udp_payload_size", Numerical, Low, QUICOnly, 1},
	{"q4", "initial_max_data", Numerical, Low, QUICOnly, 1},
	{"q5", "initial_max_stream_data_bidi_local", Numerical, Low, QUICOnly, 1},
	{"q6", "initial_max_stream_data_bidi_remote", Numerical, Low, QUICOnly, 1},
	{"q7", "initial_max_stream_data_uni", Numerical, Low, QUICOnly, 1},
	{"q8", "initial_max_streams_bidi", Numerical, Low, QUICOnly, 1},
	{"q9", "initial_max_streams_uni", Numerical, Low, QUICOnly, 1},
	{"q10", "max_ack_delay", Numerical, Low, QUICOnly, 1},
	{"q11", "disable_active_migration", Presence, Low, QUICOnly, 1},
	{"q12", "active_connection_id_limit", Numerical, Low, QUICOnly, 1},
	{"q13", "initial_source_connection_id", Length, Low, QUICOnly, 1},
	{"q14", "max_datagram_frame_size", Numerical, Low, QUICOnly, 1},
	{"q15", "grease_quic_bit", Presence, Low, QUICOnly, 1},
	{"q16", "initial_rtt", Presence, Low, QUICOnly, 1},
	{"q17", "google_connection_options", Categorical, Medium, QUICOnly, 1},
	{"q18", "user_agent", Categorical, Medium, QUICOnly, 1},
	{"q19", "google_version", Categorical, Medium, QUICOnly, 1},
	{"q20", "version_information", Categorical, Medium, QUICOnly, 1},
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
