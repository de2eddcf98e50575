package features

import (
	"fmt"
	"strconv"

	"videoplat/internal/quicproto"
	"videoplat/internal/tlsproto"
	"videoplat/internal/wire"
)

// HandshakeInfo is the assembled handshake state of one video flow, the
// input to attribute extraction. The pipeline builds it from the first few
// packets of a flow (SYN + ClientHello for TCP, the Initial for QUIC).
//
// The fields are ordered widest first, so the struct packs into 40 bytes:
// it sits in every undecided flow's assembler.
type HandshakeInfo struct {
	Hello *tlsproto.ClientHello
	// Params is parsed lazily from Hello's extension 57 when nil.
	Params *quicproto.TransportParameters

	InitPacketSize int
	TCPWScale      int // TCP SYN field; -1 absent

	// TCP SYN fields.
	TCPWindow uint16
	TCPMSS    uint16
	TCPFlags  uint8
	TCPSACK   bool

	TTL  uint8
	QUIC bool
}

// FieldValues holds extracted, typed attribute values keyed by Table 2
// label. Absent attributes simply have no entry.
type FieldValues struct {
	Nums  map[string]float64
	Cats  map[string]string
	Lists map[string][]string
}

// NewFieldValues returns an empty value set.
func NewFieldValues() *FieldValues {
	return &FieldValues{
		Nums:  map[string]float64{},
		Cats:  map[string]string{},
		Lists: map[string][]string{},
	}
}

// greaseToken is the canonical token for any GREASE code point; collapsing
// them keeps Chromium's per-flow random draws out of the vocabularies.
const greaseToken = "GREASE"

// Options tunes extraction; the zero value is the paper's configuration.
type Options struct {
	// KeepGrease disables GREASE normalization, leaving raw RFC 8701 code
	// points in the token space (the ablation of DESIGN.md).
	KeepGrease bool
}

func (o Options) suiteToken(v uint16) string {
	if !o.KeepGrease && wire.IsGrease(v) {
		return greaseToken
	}
	return hexToken(uint64(v))
}

func (o Options) paramToken(id uint64) string {
	if !o.KeepGrease && wire.GreaseTransportParam(id) {
		return greaseToken
	}
	return hexToken(id)
}

// hexToken renders v as "0x" and lowercase hex digits, in one allocation.
func hexToken(v uint64) string {
	var b [18]byte
	return string(strconv.AppendUint(append(b[:0], "0x"...), v, 16))
}

func bytesToken(b []byte) string { return fmt.Sprintf("%x", b) }

// lengthValue encodes a length-typed attribute: 0 when the extension is
// absent, 1+len(body) when present, so zero-length-but-present extensions
// (session_ticket, SCT) remain distinguishable from absent ones.
func lengthValue(n int) float64 {
	if n < 0 {
		return 0
	}
	return float64(1 + n)
}

// Extract derives the Table 2 field values from a handshake with default
// options.
func Extract(info *HandshakeInfo) *FieldValues {
	return ExtractWithOptions(info, Options{})
}

// ExtractWithOptions derives the Table 2 field values from a handshake: one
// pass over the transport's rows, rendering each row's wire source as the
// tokens training consumes. Numeric, presence and length attributes always
// get a value; a list always gets an entry, nil when its field is absent; a
// categorical is set only when its field yields a token. Rows read from the
// ClientHello are left out when the flow has none, and QUIC rows when the
// hello carries no transport parameters.
func ExtractWithOptions(info *HandshakeInfo, o Options) *FieldValues {
	v := NewFieldValues()
	ch := info.Hello
	var tp *quicproto.TransportParameters
	if info.QUIC {
		tp = info.transportParams()
	}
	var u16 []uint16
	for _, a := range transportRows[info.QUIC] {
		if a.src.fromHello() && ch == nil || a.src.readsParams() && tp == nil {
			continue
		}
		var e tlsproto.Extension
		present := false
		if a.src.readsExt() {
			e, present = ch.Extension(uint16(a.key))
		}
		l := a.Label
		switch a.src {
		case opInitPacketSize:
			v.Nums[l] = float64(info.InitPacketSize)
		case opTTL:
			v.Nums[l] = float64(info.TTL)
		case opTCPFlag:
			v.Nums[l] = presenceValue(info.TCPFlags&uint8(a.key) != 0)
		case opTCPWindow:
			v.Nums[l] = float64(info.TCPWindow)
		case opTCPMSS:
			v.Nums[l] = float64(info.TCPMSS)
		case opTCPWScale:
			v.Nums[l] = float64(max(info.TCPWScale, 0))
		case opTCPSACK:
			v.Nums[l] = presenceValue(info.TCPSACK)
		case opHandshakeLength:
			v.Nums[l] = float64(ch.HandshakeLength)
		case opLegacyVersion:
			v.Cats[l] = hexToken(uint64(ch.LegacyVersion))
		case opCipherSuites:
			v.Lists[l] = o.suiteTokens(ch.CipherSuites)
		case opCompressionLen:
			v.Nums[l] = lengthValue(len(ch.CompressionMethods))
		case opExtensionsLength:
			v.Nums[l] = float64(ch.ExtensionsLength)
		case opExtTypes:
			u16 = u16[:0]
			for _, e := range ch.Extensions {
				u16 = append(u16, e.Type)
			}
			v.Lists[l] = o.suiteTokens(u16)
		case opExtLen:
			n := -1
			if present {
				n = len(e.Data)
			}
			v.Nums[l] = lengthValue(n)
		case opStatusRequest:
			if len(e.Data) > 0 && e.Data[0] != 0 {
				v.Cats[l] = strconv.Itoa(int(e.Data[0]))
			}
		case opU16List:
			u16 = e.AppendUint16List(u16[:0])
			v.Lists[l] = o.suiteTokens(u16)
		case opSupportedVersions:
			u16 = e.AppendU8Uint16List(u16[:0])
			v.Lists[l] = o.suiteTokens(u16)
		case opKeyShare:
			u16 = e.AppendKeyShareGroups(u16[:0])
			v.Lists[l] = o.suiteTokens(u16)
		case opU8BytesCat:
			if b := e.U8PrefixedBytes(); b != nil {
				v.Cats[l] = bytesToken(b)
			}
		case opALPN:
			var names []string
			for _, name := range e.AppendALPN(nil) {
				names = append(names, string(name))
			}
			v.Lists[l] = names
		case opPresence:
			v.Nums[l] = presenceValue(present)
		case opCompressCert:
			if u16 = e.AppendU8Uint16List(u16[:0]); len(u16) > 0 {
				v.Cats[l] = string(appendCompressToken(nil, u16))
			}
		case opRecordSizeLimit:
			v.Nums[l] = 0
			if len(e.Data) == 2 {
				v.Nums[l] = float64(uint16(e.Data[0])<<8 | uint16(e.Data[1]))
			}
		case opQParamIDs:
			ids := make([]string, 0, len(tp.Params))
			for _, p := range tp.Params {
				ids = append(ids, o.paramToken(p.ID))
			}
			v.Lists[l] = ids
		case opQUint:
			n, _ := tp.Uint(a.key)
			v.Nums[l] = float64(n)
		case opQPresence:
			v.Nums[l] = presenceValue(tp.Has(a.key))
		case opQLen:
			v.Nums[l] = lengthValue(tp.ValueLen(a.key))
		case opQCat:
			if p, ok := tp.Get(a.key); ok {
				v.Cats[l] = string(p.Value)
			}
		case opQBytesCat:
			if p, ok := tp.Get(a.key); ok {
				v.Cats[l] = bytesToken(p.Value)
			}
		}
	}
	return v
}

// transportParams returns the flow's QUIC transport parameters: Params when
// the assembler pre-parsed them, else a parse of the hello's extension 57,
// nil when there is none or it does not parse.
func (info *HandshakeInfo) transportParams() *quicproto.TransportParameters {
	if info.Params != nil || info.Hello == nil {
		return info.Params
	}
	e, ok := info.Hello.Extension(tlsproto.ExtQUICTransportParams)
	if !ok {
		return nil
	}
	tp, _ := quicproto.ParseTransportParameters(e.Data)
	return tp
}

func presenceValue(present bool) float64 {
	if present {
		return 1
	}
	return 0
}

func (o Options) suiteTokens(vals []uint16) []string {
	out := make([]string, 0, len(vals))
	for _, v := range vals {
		out = append(out, o.suiteToken(v))
	}
	return out
}
