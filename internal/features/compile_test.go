package features

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"strconv"
	"testing"

	"videoplat/internal/fingerprint"
	"videoplat/internal/quicproto"
	"videoplat/internal/tlsproto"
)

// genInfos renders a spread of handshakes across platforms, providers and
// transports, several random draws each — GREASE draws, per-platform
// extension sets, QUIC transport parameters all vary.
func genInfos(t testing.TB, tr fingerprint.Transport, seeds ...uint64) []*HandshakeInfo {
	t.Helper()
	var infos []*HandshakeInfo
	for _, seed := range seeds {
		rng := newRng(seed)
		for _, label := range fingerprint.AllPlatformLabels() {
			for _, prov := range fingerprint.AllProviders() {
				if !fingerprint.SupportMatrix(label, prov) {
					continue
				}
				if tr == fingerprint.TCP && !fingerprint.SupportsTCP(label, prov) {
					continue
				}
				if tr == fingerprint.QUIC && !fingerprint.SupportsQUIC(label, prov) {
					continue
				}
				f, err := fingerprint.Generate(rng, label, prov, tr, fingerprint.Options{})
				if err != nil {
					t.Fatal(err)
				}
				infos = append(infos, infoFromFingerprint(f))
			}
		}
	}
	return infos
}

// edgeInfos are the hand-built corner cases: no hello at all, a minimal
// hello with every optional extension absent, and a hello stuffed with
// values no vocabulary has seen.
func edgeInfos() []*HandshakeInfo {
	minimal := &tlsproto.ClientHello{LegacyVersion: tlsproto.VersionTLS12,
		CipherSuites: []uint16{0x1301}, CompressionMethods: []byte{0}}
	minimal.Marshal()

	odd := &tlsproto.ClientHello{LegacyVersion: 0x0399, // unseen version token
		CipherSuites:       []uint16{0x8a8a, 0xbeef, 0x1302}, // GREASE + unseen
		CompressionMethods: []byte{0},
		Extensions: []tlsproto.Extension{
			{Type: tlsproto.ExtSessionTicket, Data: nil},       // empty-present length attr
			{Type: tlsproto.ExtStatusRequest, Data: []byte{7}}, // unseen status type
			{Type: tlsproto.ExtECPointFormats, Data: []byte{2, 0, 1}},
			{Type: tlsproto.ExtCompressCertificate, Data: []byte{4, 0, 2, 0, 99}}, // brotli + unknown algo
			{Type: tlsproto.ExtRecordSizeLimit, Data: []byte{0x3f, 0xff}},
			{Type: tlsproto.ExtALPN, Data: []byte{0, 6, 2, 'h', '2', 2, 'x', 'y'}},
			{Type: tlsproto.ExtSupportedGroups, Data: []byte{0, 4, 0xfa, 0xfa, 0x00, 0x1d}}, // GREASE group
			{Type: 0xdada, Data: nil},                                                       // GREASE extension type
		}}
	odd.Marshal()

	truncated := &tlsproto.ClientHello{LegacyVersion: tlsproto.VersionTLS12,
		CipherSuites: []uint16{0x1301}, CompressionMethods: []byte{0},
		Extensions: []tlsproto.Extension{
			// Malformed list bodies: length prefix larger than the data.
			{Type: tlsproto.ExtSupportedGroups, Data: []byte{0xff, 0xff, 0x00}},
			{Type: tlsproto.ExtALPN, Data: []byte{0xff}},
		}}
	truncated.Marshal()

	return []*HandshakeInfo{
		{InitPacketSize: 60, TTL: 64, TCPFlags: 0x02, TCPWindow: 1024, TCPMSS: 1460, TCPWScale: -1},
		{InitPacketSize: 66, TTL: 57, TCPFlags: 0xc2, TCPWindow: 65535, TCPMSS: 1400, TCPWScale: 8, TCPSACK: true, Hello: minimal},
		{InitPacketSize: 80, TTL: 128, TCPWScale: -1, Hello: odd},
		{InitPacketSize: 81, TTL: 128, TCPWScale: -1, Hello: truncated},
	}
}

// allLive marks every column of enc live, so Compile keeps every attribute.
func allLive(enc *Encoder) []bool {
	live := make([]bool, enc.Width())
	for c := range live {
		live[c] = true
	}
	return live
}

// checkEqual pins ce, compiled from enc with live, to Transform(Extract) on
// every live column and to zero on every other.
func checkEqual(t *testing.T, enc *Encoder, ce *CompiledEncoder, live []bool, info *HandshakeInfo, tag string) {
	t.Helper()
	want := enc.Transform(Extract(info))
	got := ce.EncodeInto(nil, info, nil)
	if len(want) != len(got) {
		t.Fatalf("%s: width %d vs %d", tag, len(got), len(want))
	}
	for i := range want {
		if !live[i] {
			want[i] = 0
		}
		if want[i] != got[i] {
			t.Fatalf("%s: column %d (%s, live %v): compiled %v, want %v",
				tag, i, enc.Columns()[i].Name, live[i], got[i], want[i])
		}
	}
}

func TestCompiledEncoderMatchesTransform(t *testing.T) {
	tcpTrain := genInfos(t, fingerprint.TCP, 1, 2)
	quicTrain := genInfos(t, fingerprint.QUIC, 3, 4)
	// Evaluation handshakes deliberately include draws the vocabularies
	// never saw (fresh seeds) plus the hand-built corner cases.
	tcpEval := append(genInfos(t, fingerprint.TCP, 77), edgeInfos()...)
	quicEval := append(genInfos(t, fingerprint.QUIC, 78), edgeInfos()...)

	fit := func(quic bool, train []*HandshakeInfo, subset []string) (*Encoder, *CompiledEncoder) {
		t.Helper()
		enc, err := NewEncoder(quic, subset)
		if err != nil {
			t.Fatal(err)
		}
		var samples []*FieldValues
		for _, info := range train {
			samples = append(samples, Extract(info))
		}
		enc.Fit(samples)
		ce, err := Compile(enc, allLive(enc))
		if err != nil {
			t.Fatal(err)
		}
		if ce.Width() != enc.Width() {
			t.Fatalf("compiled width %d != encoder width %d", ce.Width(), enc.Width())
		}
		return enc, ce
	}

	for _, tc := range []struct {
		name   string
		quic   bool
		train  []*HandshakeInfo
		eval   []*HandshakeInfo
		subset []string
	}{
		{name: "tcp", train: tcpTrain, eval: tcpEval},
		{name: "quic", quic: true, train: quicTrain, eval: quicEval},
		// Cross-transport inputs: a QUIC handshake through the TCP schema
		// (and vice versa) must still match the reference path's zeros.
		{name: "tcp-schema-quic-input", train: tcpTrain, eval: quicEval},
		{name: "quic-schema-tcp-input", quic: true, train: quicTrain, eval: tcpEval},
		{name: "tcp-subset", train: tcpTrain, eval: tcpEval,
			subset: []string{"t1", "t11", "m2", "m3", "o3", "o5", "o7", "o12", "o13", "o19"}},
		{name: "quic-subset", quic: true, train: quicTrain, eval: quicEval,
			subset: []string{"t1", "m3", "q1", "q2", "q13", "q17", "q18", "q20"}},
	} {
		enc, ce := fit(tc.quic, tc.train, tc.subset)
		for i, info := range tc.eval {
			checkEqual(t, enc, ce, allLive(enc), info, fmt.Sprintf("%s[%d]", tc.name, i))
		}
	}
}

// TestCompiledEncoderSurvivesSerialization pins that compiling a gob
// round-tripped encoder yields the same vectors (the bank-deploy scenario).
func TestCompiledEncoderSurvivesSerialization(t *testing.T) {
	train := genInfos(t, fingerprint.QUIC, 5)
	eval := genInfos(t, fingerprint.QUIC, 79)
	enc, err := NewEncoder(true, nil)
	if err != nil {
		t.Fatal(err)
	}
	var samples []*FieldValues
	for _, info := range train {
		samples = append(samples, Extract(info))
	}
	enc.Fit(samples)

	blob, err := enc.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	restored := &Encoder{}
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if !enc.EquivalentTo(restored) {
		t.Fatal("round-tripped encoder not equivalent")
	}
	ce, err := Compile(restored, allLive(restored))
	if err != nil {
		t.Fatal(err)
	}
	for i, info := range eval {
		checkEqual(t, enc, ce, allLive(enc), info, fmt.Sprintf("roundtrip[%d]", i))
	}
}

// TestCompileKeepsOnlyLiveColumns pins the pruned encoder where
// FuzzEncodeMatchesExtract's live sets may not reach: with every second or
// third position of each list attribute live (so dead columns sit before,
// between and after live ones) every live column matches Transform(Extract)
// and every other is zero; with nothing live the encoder reads nothing; and
// a live set of the wrong width is refused.
func TestCompileKeepsOnlyLiveColumns(t *testing.T) {
	for _, quic := range []bool{false, true} {
		tr := fingerprint.TCP
		if quic {
			tr = fingerprint.QUIC
		}
		enc := fitted(t, quic, Options{})
		eval := append(genInfos(t, tr, 77), edgeInfos()...)
		for _, every := range []int{2, 3} {
			live := make([]bool, enc.Width())
			for c, col := range enc.Columns() {
				live[c] = enc.Attrs[col.Attr].Kind == List && col.Index%every == 1
			}
			ce, err := Compile(enc, live)
			if err != nil {
				t.Fatal(err)
			}
			if len(ce.holes) == 0 {
				t.Fatalf("quic=%v every %d: no dead column inside a kept list", quic, every)
			}
			for i, info := range eval {
				checkEqual(t, enc, ce, live, info, fmt.Sprintf("quic=%v every %d flow %d", quic, every, i))
			}
		}
		none, err := Compile(enc, make([]bool, enc.Width()))
		if err != nil {
			t.Fatal(err)
		}
		if len(none.attrs) != 0 || len(none.holes) != 0 || none.numExts != 0 || none.quicAttrs {
			t.Errorf("quic=%v: nothing live, yet %d attributes, %d holes, %d extensions, QUIC parameters %v",
				quic, len(none.attrs), len(none.holes), none.numExts, none.quicAttrs)
		}
		if _, err := Compile(enc, make([]bool, enc.Width()-1)); err == nil {
			t.Errorf("quic=%v: a live set one column short compiled", quic)
		}
	}
}

// TestEncoderBlobDeterministicAndOldLayoutLoads pins that an encoder
// marshals to the same bytes every time, and that a blob of the layout
// written before the sorted vocabulary lists (vocabularies as one gob map)
// still loads to an equivalent encoder.
func TestEncoderBlobDeterministicAndOldLayoutLoads(t *testing.T) {
	for _, quic := range []bool{false, true} {
		enc := fitted(t, quic, Options{})
		blob, err := enc.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			again, err := enc.MarshalBinary()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again, blob) {
				t.Fatalf("quic=%v: two marshals of one encoder differ", quic)
			}
		}
		old := encoderDTO{Vocabs: enc.vocabs, QUIC: quic}
		for _, a := range enc.Attrs {
			old.Labels = append(old.Labels, a.Label)
		}
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(old); err != nil {
			t.Fatal(err)
		}
		for name, b := range map[string][]byte{"current": blob, "old layout": buf.Bytes()} {
			restored := &Encoder{}
			if err := restored.UnmarshalBinary(b); err != nil {
				t.Fatalf("quic=%v %s: %v", quic, name, err)
			}
			if !enc.EquivalentTo(restored) {
				t.Fatalf("quic=%v %s: restored encoder not equivalent", quic, name)
			}
		}
	}
}

// TestEncodeIntoZeroAlloc pins the serving-path contract: with a reused
// vector, a scratch, and pre-parsed QUIC transport parameters, EncodeInto
// performs no allocations.
func TestEncodeIntoZeroAlloc(t *testing.T) {
	for _, quic := range []bool{false, true} {
		tr := fingerprint.TCP
		if quic {
			tr = fingerprint.QUIC
		}
		infos := genInfos(t, tr, 6)
		enc, err := NewEncoder(quic, nil)
		if err != nil {
			t.Fatal(err)
		}
		var samples []*FieldValues
		for _, info := range infos {
			samples = append(samples, Extract(info))
		}
		enc.Fit(samples)
		ce, err := Compile(enc, allLive(enc))
		if err != nil {
			t.Fatal(err)
		}

		info := infos[0]
		if quic {
			// The pipeline's assembler pre-parses transport parameters; do
			// the same so the encode stage is measured as deployed.
			e, ok := info.Hello.Extension(tlsproto.ExtQUICTransportParams)
			if !ok {
				t.Fatal("no transport parameters in QUIC hello")
			}
			info.Params, err = quicproto.ParseTransportParameters(e.Data)
			if err != nil {
				t.Fatal(err)
			}
		}
		var sc EncodeScratch
		dst := ce.EncodeInto(nil, info, &sc) // warm scratch capacities
		allocs := testing.AllocsPerRun(200, func() {
			dst = ce.EncodeInto(dst, info, &sc)
		})
		if allocs != 0 {
			t.Errorf("quic=%v: EncodeInto allocates %.1f per call, want 0", quic, allocs)
		}
	}
}

// fitted returns an encoder fitted on rendered handshakes extracted with o.
func fitted(t testing.TB, quic bool, o Options) *Encoder {
	t.Helper()
	tr := fingerprint.TCP
	if quic {
		tr = fingerprint.QUIC
	}
	enc, err := NewEncoder(quic, nil)
	if err != nil {
		t.Fatal(err)
	}
	var samples []*FieldValues
	for _, info := range genInfos(t, tr, 1, 2) {
		samples = append(samples, ExtractWithOptions(info, o))
	}
	enc.Fit(samples)
	return enc
}

// TestU16TablesMatchVocabularyExhaustively checks every uint16-keyed
// attribute of a compiled encoder against the fitted vocabulary it was
// interned from, for all 65,536 wire values: the flat table must resolve
// each value to exactly the id Transform finds for the token Extract
// renders — GREASE collapse and m2's uncollapsed version included. The
// encoder is also fitted on KeepGrease extractions, so vocabularies hold raw
// GREASE tokens the compiled (always-collapsing) encoder cannot reach.
func TestU16TablesMatchVocabularyExhaustively(t *testing.T) {
	for _, quic := range []bool{false, true} {
		for _, fitOpts := range []Options{{}, {KeepGrease: true}} {
			enc := fitted(t, quic, fitOpts)
			// Whatever the fit saw, give every vocabulary the tokens the
			// fit options disagree about — the collapsed GREASE token and
			// raw GREASE code points — and spellings no extraction renders.
			for _, a := range enc.Attrs {
				vocab := enc.vocabs[a.Label]
				if vocab == nil {
					continue
				}
				for _, tok := range []string{greaseToken, "0xa0a", "0xfafa", "0x0a0a", "0XFAFA", "0x00ff", "007", "7"} {
					if _, ok := vocab[tok]; !ok {
						vocab[tok] = len(vocab) + 1
					}
				}
			}
			ce, err := Compile(enc, allLive(enc))
			if err != nil {
				t.Fatal(err)
			}
			tables := 0
			for i := range ce.attrs {
				ca := &ce.attrs[i]
				label := enc.Attrs[i].Label
				var token func(v uint16) (string, bool)
				switch ca.op {
				case opCipherSuites, opExtTypes, opU16List, opSupportedVersions, opKeyShare:
					token = func(v uint16) (string, bool) { return Options{}.suiteToken(v), true }
				case opLegacyVersion:
					token = func(v uint16) (string, bool) { return "0x" + strconv.FormatUint(uint64(v), 16), true }
				case opStatusRequest:
					token = func(v uint16) (string, bool) { return strconv.Itoa(int(v)), v <= 255 }
				default:
					continue
				}
				tables++
				vocab := enc.vocabs[label]
				for v := 0; v <= 0xffff; v++ {
					want := 0
					if tok, ok := token(uint16(v)); ok {
						want = vocab[tok]
					}
					if got := ca.u16.get(uint16(v)); got != want {
						t.Fatalf("quic=%v fit=%+v %s: value %#x resolves to %d, vocabulary says %d",
							quic, fitOpts, label, v, got, want)
					}
				}
			}
			if tables < 9 {
				t.Fatalf("only %d uint16-keyed attributes checked", tables)
			}
		}
	}
}

// TestFlatTable checks the table against the map it was built from, on
// 64-bit keys that collide in their low bits, and its id-range contract.
func TestFlatTable(t *testing.T) {
	rng := newRng(9)
	for _, n := range []int{0, 1, 2, 3, 17, 200} {
		entries := map[uint64]int{}
		for len(entries) < n {
			entries[rng.Uint64()<<16] = 1 + len(entries)
		}
		tab, err := newFlatTable(entries)
		if err != nil {
			t.Fatal(err)
		}
		if len(tab.slots) != 0 && len(tab.slots) < 2*n {
			t.Fatalf("%d entries in %d slots: load factor above one half", n, len(tab.slots))
		}
		for k, id := range entries {
			if got := tab.get(k); got != id {
				t.Fatalf("n=%d: get(%#x) = %d, want %d", n, k, got, id)
			}
			if got := tab.get(k + 1); got != 0 {
				t.Fatalf("n=%d: get of an absent key = %d", n, got)
			}
		}
	}
	ids := []int{0, -1}
	if big := int64(1) << 31; int64(int(big)) == big { // only where int holds it
		ids = append(ids, int(big))
	}
	for _, id := range ids {
		if _, err := newFlatTable(map[uint16]int{7: id}); err == nil {
			t.Errorf("id %d interned; want an error so Compile falls back", id)
		}
	}
}
