package features

import (
	"encoding/hex"
	"fmt"
	"strconv"
	"strings"

	"videoplat/internal/quicproto"
	"videoplat/internal/tlsproto"
	"videoplat/internal/wire"
)

// CompiledEncoder is a fitted Encoder lowered into a dense slot table for
// the serving path. Where Extract+Transform materialize every Table 2 field
// as string tokens in three maps and then resolve them through per-attribute
// string vocabularies, the compiled form resolves raw wire values —
// cipher-suite uint16s, extension ids, QUIC transport-parameter ids, raw
// extension bytes — through interned lookup tables built once at compile
// time, and writes the encoded vector straight into a caller-owned
// []float64. It encodes only the live columns it was compiled for, the ones
// some model reads: EncodeInto(dst, info, sc) is element-identical to
// Transform(Extract(info)) on those columns and zero on every other, for
// every handshake (pinned by the golden-equivalence tests). The row keeps
// the encoder's full width, so no column is renumbered.
//
// A CompiledEncoder is immutable after Compile and safe for concurrent use;
// per-call mutable state lives in the caller's EncodeScratch.
type CompiledEncoder struct {
	width int
	// attrs are the attributes with a live column, each cut after its last
	// live column; holes are the dead columns left inside them, cleared
	// after the attributes are written.
	attrs []compiledAttr
	holes []int32
	// quicAttrs reports whether any attribute reads QUIC transport
	// parameters, so TCP-schema encoders never resolve them.
	quicAttrs bool
	// extSlots numbers the TLS extension types the attributes read: type ->
	// 1 + the type's position in EncodeScratch.extPos. EncodeInto walks a
	// hello's extension list once to fill extPos, and every ext-sourced
	// attribute (about twenty-five of them) then finds its extension by
	// index instead of rescanning the list.
	extSlots flatTable[uint16]
	numExts  int
}

// EncodeScratch holds the per-caller mutable state EncodeInto needs to run
// allocation-free: the current hello's extension index and reusable buffers
// for extension-list walking and token rendering. One scratch per
// goroutine; the zero value is ready to use.
type EncodeScratch struct {
	// extPos[slot] is the position in Hello.Extensions of the first
	// extension of the slot's type (CompiledEncoder.extSlots), -1 if the
	// hello has none. Valid for the hello and encoder of the current call.
	extPos []int32
	u16    []uint16
	alpn   [][]byte
	tok    []byte
}

// compiledAttr is one Table 2 attribute's wire source plus the interned
// lookup tables its tokens resolve through.
type compiledAttr struct {
	op    source
	key   uint64 // the row's key: TCP flag bit, transport-parameter id
	col   int    // first output column
	width int    // expanded columns (list width, else 1)
	ext   int    // slot in EncodeScratch.extPos for ext-sourced ops, else -1

	// u16 maps a raw uint16 wire value (cipher suite, extension id, named
	// group, ...; for o3 the status_request type byte) to its 1-based vocab
	// id. GREASE collapse is folded in at compile time: unless the encoder
	// keeps GREASE, all sixteen RFC 8701 values carry the GREASE token's id.
	u16    flatTable[uint16]
	u64    flatTable[uint64] // raw param id -> vocab id (q1)
	str    map[string]int    // raw bytes or rendered token -> vocab id
	grease int               // q1: vocab id of the collapsed GREASE token (0 if unseen)
}

// Compile lowers a fitted encoder into its serving-path form, equivalent to
// Transform∘Extract on the columns live marks (live[c] for column c of
// e.Columns(); a bank marks the columns its forests split on) and zero on
// the rest: default extraction options, the paper's configuration (the
// GREASE ablation goes through the reference ExtractWithOptions). Each
// attribute with a live column is read from its Table 2 row's wire source;
// the others are never read, and the extension index and transport
// parameters cover the kept attributes only. It fails for a live set that
// is not e.Width() long and for a vocabulary id it cannot intern.
func Compile(e *Encoder, live []bool) (*CompiledEncoder, error) {
	if len(live) != e.Width() {
		return nil, fmt.Errorf("features: a live set of %d columns for an encoder of width %d", len(live), e.Width())
	}
	ce := &CompiledEncoder{width: e.Width()}
	col := 0
	extSlots := map[uint16]int{} // extension type -> 1-based slot
	for _, a := range e.Attrs {
		ca := compiledAttr{op: a.src, key: a.key, col: col, width: 1, ext: -1}
		if a.Kind == List {
			ca.width = a.Width
		}
		col += ca.width
		for ca.width > 0 && !live[ca.col+ca.width-1] {
			ca.width--
		}
		if ca.width == 0 {
			continue // no live column: the attribute is never read
		}
		for c := ca.col; c < ca.col+ca.width; c++ {
			if !live[c] {
				ce.holes = append(ce.holes, int32(c))
			}
		}
		if a.src.readsExt() {
			slot, ok := extSlots[uint16(a.key)]
			if !ok {
				slot = len(extSlots) + 1
				extSlots[uint16(a.key)] = slot
			}
			ca.ext = slot - 1
		}
		if err := buildTables(&ca, e.vocabs[a.Label]); err != nil {
			return nil, fmt.Errorf("features: attribute %q: %w", a.Label, err)
		}
		ce.quicAttrs = ce.quicAttrs || a.src.readsParams()
		ce.attrs = append(ce.attrs, ca)
	}
	ce.numExts = len(extSlots)
	ce.extSlots, _ = newFlatTable(extSlots) // slots are 1..n: always internable
	return ce, nil
}

// buildTables interns an attribute's fitted vocabulary as raw-wire-value
// lookup tables. Tokens that no serving-side extraction could ever produce
// (non-canonical hex spellings, odd-length hex, a raw GREASE code point in a
// list that collapses GREASE) are dropped: Transform could never match
// them either, so the miss-to-zero behaviour is identical.
func buildTables(ca *compiledAttr, vocab map[string]int) (err error) {
	switch ca.op {
	case opLegacyVersion, opCipherSuites, opExtTypes, opU16List,
		opSupportedVersions, opKeyShare:
		// m2 renders the raw version; every list goes through suiteToken.
		collapse := ca.op != opLegacyVersion
		u16 := make(map[uint16]int, len(vocab))
		for tok, id := range vocab {
			v, ok := parseHexToken(tok, 16)
			switch {
			case tok == greaseToken && collapse:
				for i := 0; i < 16; i++ {
					u16[wire.GreaseValue(i)] = id
				}
			case ok && !(collapse && wire.IsGrease(uint16(v))):
				u16[uint16(v)] = id
			}
		}
		ca.u16, err = newFlatTable(u16)
	case opQParamIDs:
		u64 := make(map[uint64]int, len(vocab))
		for tok, id := range vocab {
			if tok == greaseToken {
				ca.grease = id
				continue
			}
			if v, ok := parseHexToken(tok, 64); ok {
				u64[v] = id
			}
		}
		ca.u64, err = newFlatTable(u64)
	case opStatusRequest:
		u8 := make(map[uint16]int, len(vocab))
		for tok, id := range vocab {
			n, err := strconv.Atoi(tok)
			if err == nil && n >= 0 && n <= 255 && strconv.Itoa(n) == tok {
				u8[uint16(n)] = id
			}
		}
		ca.u16, err = newFlatTable(u8)
	case opU8BytesCat, opQBytesCat:
		// bytesToken renders raw bytes as lowercase hex; key the table on
		// the decoded bytes so lookups skip the render.
		ca.str = make(map[string]int, len(vocab))
		for tok, id := range vocab {
			raw, err := hex.DecodeString(tok)
			if err == nil && hex.EncodeToString(raw) == tok {
				ca.str[string(raw)] = id
			}
		}
	case opALPN, opCompressCert, opQCat:
		ca.str = make(map[string]int, len(vocab))
		for tok, id := range vocab {
			ca.str[tok] = id
		}
	}
	return err
}

// parseHexToken inverts the "0x%x" token rendering, rejecting spellings the
// renderer could never emit (uppercase, leading zeros, overflow).
func parseHexToken(tok string, bits int) (uint64, bool) {
	if !strings.HasPrefix(tok, "0x") {
		return 0, false
	}
	v, err := strconv.ParseUint(tok[2:], 16, bits)
	if err != nil || strconv.FormatUint(v, 16) != tok[2:] {
		return 0, false
	}
	return v, true
}

// Width returns the encoded vector width.
func (ce *CompiledEncoder) Width() int { return ce.width }

// Encode is EncodeInto with a freshly allocated vector and scratch, for
// callers off the hot path.
func (ce *CompiledEncoder) Encode(info *HandshakeInfo) []float64 {
	var sc EncodeScratch
	return ce.EncodeInto(nil, info, &sc)
}

// EncodeInto encodes a handshake directly into dst, reusing its capacity,
// and returns the width-long vector. The result is element-identical to
// Transform(Extract(info)) on the encoder this was compiled from in every
// live column, and zero in every other. sc provides
// the per-caller buffers that keep the steady state allocation-free; nil sc
// allocates a temporary one. Zero-allocation in the steady state, pinned by
// TestEncodeIntoZeroAlloc.
func (ce *CompiledEncoder) EncodeInto(dst []float64, info *HandshakeInfo, sc *EncodeScratch) []float64 {
	if sc == nil {
		sc = &EncodeScratch{} // cold nil-scratch path for off-path callers
	}
	if cap(dst) < ce.width {
		dst = make([]float64, ce.width) // cold first-call growth; steady state reuses dst
	} else {
		dst = dst[:ce.width]
		clear(dst)
	}

	ch := info.Hello
	if ch != nil {
		ce.indexExtensions(sc, ch)
	}
	var tp *quicproto.TransportParameters
	if info.QUIC && ce.quicAttrs {
		// The pipeline's assembler pre-populates Params, so serving never
		// takes transportParams' lazy parse of extension 57.
		tp = info.transportParams()
	}

	for i := range ce.attrs {
		ca := &ce.attrs[i]
		switch ca.op {
		case opInitPacketSize:
			dst[ca.col] = float64(info.InitPacketSize)
		case opTTL:
			dst[ca.col] = float64(info.TTL)
		case opTCPFlag:
			if !info.QUIC && info.TCPFlags&uint8(ca.key) != 0 {
				dst[ca.col] = 1
			}
		case opTCPWindow:
			if !info.QUIC {
				dst[ca.col] = float64(info.TCPWindow)
			}
		case opTCPMSS:
			if !info.QUIC {
				dst[ca.col] = float64(info.TCPMSS)
			}
		case opTCPWScale:
			if !info.QUIC && info.TCPWScale >= 0 {
				dst[ca.col] = float64(info.TCPWScale)
			}
		case opTCPSACK:
			if !info.QUIC && info.TCPSACK {
				dst[ca.col] = 1
			}
		}
		if ch == nil {
			continue // hello-sourced slots stay zero, as in Extract
		}
		// Ext-sourced attributes read one extension's body. An absent
		// extension leaves their slots zero, as the reference accessors'
		// nil results do.
		var e *tlsproto.Extension
		if ca.ext >= 0 {
			if sc.extPos[ca.ext] < 0 {
				continue
			}
			e = &ch.Extensions[sc.extPos[ca.ext]]
		}
		switch ca.op {
		case opHandshakeLength:
			dst[ca.col] = float64(ch.HandshakeLength)
		case opLegacyVersion:
			dst[ca.col] = float64(ca.u16.get(ch.LegacyVersion))
		case opCipherSuites:
			ca.writeU16List(dst, ch.CipherSuites)
		case opCompressionLen:
			dst[ca.col] = lengthValue(len(ch.CompressionMethods))
		case opExtensionsLength:
			dst[ca.col] = float64(ch.ExtensionsLength)
		case opExtTypes:
			for i := range ch.Extensions {
				if i >= ca.width {
					break
				}
				dst[ca.col+i] = float64(ca.u16.get(ch.Extensions[i].Type))
			}
		case opQParamIDs:
			if tp == nil {
				break
			}
			for i := range tp.Params {
				if i >= ca.width {
					break
				}
				id := tp.Params[i].ID
				if wire.GreaseTransportParam(id) {
					dst[ca.col+i] = float64(ca.grease)
				} else {
					dst[ca.col+i] = float64(ca.u64.get(id))
				}
			}
		case opQUint:
			if tp == nil {
				break
			}
			if v, ok := tp.Uint(ca.key); ok {
				dst[ca.col] = float64(v)
			}
		case opQPresence:
			if tp != nil && tp.Has(ca.key) {
				dst[ca.col] = 1
			}
		case opQLen:
			if tp != nil {
				dst[ca.col] = lengthValue(tp.ValueLen(ca.key))
			}
		case opQCat, opQBytesCat:
			if tp == nil {
				break
			}
			if p, ok := tp.Get(ca.key); ok {
				dst[ca.col] = float64(ca.str[string(p.Value)]) // map-index string conversion is not materialized
			}
		case opExtLen:
			dst[ca.col] = lengthValue(len(e.Data))
		case opStatusRequest:
			// Type 0 is StatusRequestType's "absent": never looked up.
			if len(e.Data) > 0 && e.Data[0] != 0 {
				dst[ca.col] = float64(ca.u16.get(uint16(e.Data[0])))
			}
		case opU16List:
			sc.u16 = e.AppendUint16List(sc.u16[:0])
			ca.writeU16List(dst, sc.u16)
		case opSupportedVersions:
			sc.u16 = e.AppendU8Uint16List(sc.u16[:0])
			ca.writeU16List(dst, sc.u16)
		case opKeyShare:
			sc.u16 = e.AppendKeyShareGroups(sc.u16[:0])
			ca.writeU16List(dst, sc.u16)
		case opU8BytesCat:
			if b := e.U8PrefixedBytes(); b != nil {
				dst[ca.col] = float64(ca.str[string(b)]) // map-index string conversion is not materialized
			}
		case opALPN:
			// The map index converts the aliased wire bytes in place — no
			// string is materialized.
			sc.alpn = e.AppendALPN(sc.alpn[:0])
			for i, name := range sc.alpn {
				if i >= ca.width {
					break
				}
				dst[ca.col+i] = float64(ca.str[string(name)]) // map-index string conversion is not materialized
			}
		case opPresence:
			dst[ca.col] = 1
		case opCompressCert:
			sc.u16 = e.AppendU8Uint16List(sc.u16[:0])
			if len(sc.u16) > 0 {
				sc.tok = appendCompressToken(sc.tok[:0], sc.u16)
				dst[ca.col] = float64(ca.str[string(sc.tok)]) // map-index string conversion is not materialized
			}
		case opRecordSizeLimit:
			if len(e.Data) == 2 {
				dst[ca.col] = float64(uint16(e.Data[0])<<8 | uint16(e.Data[1]))
			}
		}
	}
	for _, c := range ce.holes {
		dst[c] = 0
	}
	return dst
}

// writeU16List resolves a uint16 list through the interned vocabulary (GREASE
// collapse included, see compiledAttr.u16) into the attribute's columns.
func (ca *compiledAttr) writeU16List(dst []float64, vals []uint16) {
	for i, v := range vals {
		if i >= ca.width {
			return
		}
		dst[ca.col+i] = float64(ca.u16.get(v))
	}
}

// indexExtensions fills sc.extPos for one hello: a single walk of its
// extension list, first occurrence winning as in ClientHello.Extension.
func (ce *CompiledEncoder) indexExtensions(sc *EncodeScratch, ch *tlsproto.ClientHello) {
	sc.extPos = sc.extPos[:0]
	for range ce.numExts {
		sc.extPos = append(sc.extPos, -1)
	}
	for i := range ch.Extensions {
		if slot := ce.extSlots.get(ch.Extensions[i].Type); slot != 0 && sc.extPos[slot-1] < 0 {
			sc.extPos[slot-1] = int32(i)
		}
	}
}

// appendCompressToken renders the o12 certificate-compression token — the
// paper's zlib/brotli example of §3.3.2 — into a reusable buffer.
func appendCompressToken(tok []byte, algs []uint16) []byte {
	for i, a := range algs {
		if i > 0 {
			tok = append(tok, ',')
		}
		switch a {
		case 1:
			tok = append(tok, "zlib"...)
		case 2:
			tok = append(tok, "brotli"...)
		case 3:
			tok = append(tok, "zstd"...)
		default:
			tok = append(tok, "0x"...)
			tok = strconv.AppendUint(tok, uint64(a), 16) // amortized growth of reused scratch, pinned by TestEncodeIntoZeroAlloc
		}
	}
	return tok
}
