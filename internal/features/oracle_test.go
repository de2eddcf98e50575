package features_test

import (
	"fmt"
	"slices"
	"strconv"
	"testing"

	"videoplat/internal/features"
	"videoplat/internal/fingerprint"
	"videoplat/internal/packet"
	"videoplat/internal/pipeline"
	"videoplat/internal/quicproto"
	"videoplat/internal/tlsproto"
	"videoplat/internal/tracegen"
	"videoplat/internal/wire"
)

// referenceExtract is the hand-ordered extractor that Table 2's per-row wire
// sources replaced, kept as the oracle for ExtractWithOptions: each
// attribute is read by a line of its own, through the ClientHello accessors
// of its day (restated here over the Extension body parsers they wrapped).
func referenceExtract(info *features.HandshakeInfo, o features.Options) *features.FieldValues {
	v := features.NewFieldValues()
	v.Nums["t1"] = float64(info.InitPacketSize)
	v.Nums["t2"] = float64(info.TTL)

	if !info.QUIC {
		flagBits := []struct {
			label string
			bit   uint8
		}{
			{"t3", 1 << 7}, {"t4", 1 << 6}, {"t5", 1 << 5}, {"t6", 1 << 4},
			{"t7", 1 << 3}, {"t8", 1 << 2}, {"t9", 1 << 1}, {"t10", 1 << 0},
		}
		for _, f := range flagBits {
			v.Nums[f.label] = boolValue(info.TCPFlags&f.bit != 0)
		}
		v.Nums["t11"] = float64(info.TCPWindow)
		v.Nums["t12"] = float64(info.TCPMSS)
		v.Nums["t13"] = 0
		if info.TCPWScale >= 0 {
			v.Nums["t13"] = float64(info.TCPWScale)
		}
		v.Nums["t14"] = boolValue(info.TCPSACK)
	}

	ch := info.Hello
	if ch == nil {
		return v
	}
	ext := func(typ uint16) tlsproto.Extension {
		e, _ := ch.Extension(typ)
		return e
	}
	extLen := func(typ uint16) float64 {
		e, ok := ch.Extension(typ)
		if !ok {
			return 0
		}
		return float64(1 + len(e.Data))
	}
	tokens := func(vals []uint16) []string {
		if vals == nil {
			return nil
		}
		out := make([]string, 0, len(vals))
		for _, x := range vals {
			out = append(out, suiteToken(o, x))
		}
		return out
	}
	alpn := func(typ uint16) []string {
		var out []string
		for _, name := range ext(typ).AppendALPN(nil) {
			out = append(out, string(name))
		}
		return out
	}

	v.Nums["m1"] = float64(ch.HandshakeLength)
	v.Cats["m2"] = "0x" + strconv.FormatUint(uint64(ch.LegacyVersion), 16)
	v.Lists["m3"] = tokens(ch.CipherSuites)
	v.Nums["m4"] = float64(1 + len(ch.CompressionMethods))
	v.Nums["m5"] = float64(ch.ExtensionsLength)

	v.Lists["o1"] = tokens(ch.ExtensionTypes())
	v.Nums["o2"] = extLen(tlsproto.ExtServerName)
	if sr := ext(tlsproto.ExtStatusRequest).Data; len(sr) > 0 && sr[0] != 0 {
		v.Cats["o3"] = strconv.Itoa(int(sr[0]))
	}
	v.Lists["o4"] = tokens(ch.SupportedGroups())
	if pf := ch.ECPointFormats(); pf != nil {
		v.Cats["o5"] = fmt.Sprintf("%x", pf)
	}
	v.Lists["o6"] = tokens(ext(tlsproto.ExtSignatureAlgorithms).AppendUint16List(nil))
	v.Lists["o7"] = ch.ALPNProtocols()
	v.Nums["o8"] = extLen(tlsproto.ExtSCT)
	v.Nums["o9"] = extLen(tlsproto.ExtPadding)
	v.Nums["o10"] = boolValue(ch.HasExtension(tlsproto.ExtEncryptThenMac))
	v.Nums["o11"] = boolValue(ch.HasExtension(tlsproto.ExtExtendedMasterSecret))
	if algs := ch.CompressCertificateAlgorithms(); len(algs) > 0 {
		v.Cats["o12"] = compressToken(algs)
	}
	v.Nums["o13"] = float64(ch.RecordSizeLimit())
	v.Lists["o14"] = tokens(ext(tlsproto.ExtDelegatedCredentials).AppendUint16List(nil))
	v.Nums["o15"] = extLen(tlsproto.ExtSessionTicket)
	v.Nums["o16"] = boolValue(ch.HasExtension(tlsproto.ExtPreSharedKey))
	v.Nums["o17"] = extLen(tlsproto.ExtEarlyData)
	v.Lists["o18"] = tokens(ext(tlsproto.ExtSupportedVersions).AppendU8Uint16List(nil))
	if m := ext(tlsproto.ExtPSKKeyExchangeModes).U8PrefixedBytes(); m != nil {
		v.Cats["o19"] = fmt.Sprintf("%x", m)
	}
	v.Nums["o20"] = boolValue(ch.HasExtension(tlsproto.ExtPostHandshakeAuth))
	v.Lists["o21"] = tokens(ext(tlsproto.ExtKeyShare).AppendKeyShareGroups(nil))
	v.Lists["o22"] = alpn(tlsproto.ExtApplicationSettings)
	v.Nums["o23"] = boolValue(ch.HasExtension(tlsproto.ExtRenegotiationInfo))

	if info.QUIC {
		referenceQUIC(info, v, o)
	}
	return v
}

func referenceQUIC(info *features.HandshakeInfo, v *features.FieldValues, o features.Options) {
	tp := info.Params
	if tp == nil {
		if e, ok := info.Hello.Extension(tlsproto.ExtQUICTransportParams); ok {
			tp, _ = quicproto.ParseTransportParameters(e.Data)
		}
	}
	if tp == nil {
		return
	}
	ids := make([]string, 0, len(tp.Params))
	for _, id := range tp.IDs() {
		if !o.KeepGrease && wire.GreaseTransportParam(id) {
			ids = append(ids, "GREASE")
		} else {
			ids = append(ids, "0x"+strconv.FormatUint(id, 16))
		}
	}
	v.Lists["q1"] = ids

	numeric := []struct {
		label string
		id    uint64
	}{
		{"q2", quicproto.ParamMaxIdleTimeout},
		{"q3", quicproto.ParamMaxUDPPayloadSize},
		{"q4", quicproto.ParamInitialMaxData},
		{"q5", quicproto.ParamInitialMaxStreamDataBidiLocal},
		{"q6", quicproto.ParamInitialMaxStreamDataBidiRemote},
		{"q7", quicproto.ParamInitialMaxStreamDataUni},
		{"q8", quicproto.ParamInitialMaxStreamsBidi},
		{"q9", quicproto.ParamInitialMaxStreamsUni},
		{"q10", quicproto.ParamMaxAckDelay},
		{"q12", quicproto.ParamActiveConnectionIDLimit},
		{"q14", quicproto.ParamMaxDatagramFrameSize},
	}
	for _, n := range numeric {
		val, _ := tp.Uint(n.id)
		v.Nums[n.label] = float64(val)
	}
	v.Nums["q11"] = boolValue(tp.Has(quicproto.ParamDisableActiveMigration))
	v.Nums["q13"] = 0
	if n := tp.ValueLen(quicproto.ParamInitialSourceConnectionID); n >= 0 {
		v.Nums["q13"] = float64(1 + n)
	}
	v.Nums["q15"] = boolValue(tp.Has(quicproto.ParamGreaseQuicBit))
	v.Nums["q16"] = boolValue(tp.Has(quicproto.ParamInitialRTT))
	if p, ok := tp.Get(quicproto.ParamGoogleConnectionOptions); ok {
		v.Cats["q17"] = string(p.Value)
	}
	if p, ok := tp.Get(quicproto.ParamUserAgent); ok {
		v.Cats["q18"] = string(p.Value)
	}
	if p, ok := tp.Get(quicproto.ParamGoogleVersion); ok {
		v.Cats["q19"] = string(p.Value)
	}
	if p, ok := tp.Get(quicproto.ParamVersionInformation); ok {
		v.Cats["q20"] = fmt.Sprintf("%x", p.Value)
	}
}

func suiteToken(o features.Options, v uint16) string {
	if !o.KeepGrease && wire.IsGrease(v) {
		return "GREASE"
	}
	return "0x" + strconv.FormatUint(uint64(v), 16)
}

func compressToken(algs []uint16) string {
	var s string
	for i, a := range algs {
		if i > 0 {
			s += ","
		}
		switch a {
		case 1:
			s += "zlib"
		case 2:
			s += "brotli"
		case 3:
			s += "zstd"
		default:
			s += "0x" + strconv.FormatUint(uint64(a), 16)
		}
	}
	return s
}

func boolValue(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// oracleInfos assembles handshakes from rendered traces: the lab and
// open-set datasets plus the scenario families — ECH over both transports,
// QUIC migration mid-stream and mid-handshake, and 0-RTT, whose QUIC flows
// carry no hello and so give the partial information the degraded path
// classifies on. Each QUIC handshake appears twice, with the transport
// parameters the assembler pre-parses and without, so the lazy parse of
// extension 57 is compared too.
func oracleInfos(t testing.TB) []*features.HandshakeInfo {
	t.Helper()
	lab, err := tracegen.New(21).LabDataset(0.02, fingerprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	open, err := tracegen.New(22).OpenSetDataset(1)
	if err != nil {
		t.Fatal(err)
	}
	traces := append(lab.Flows, open.Flows...)
	g := tracegen.New(23)
	scenario := func(label string, prov fingerprint.Provider, tr fingerprint.Transport, spec tracegen.FlowSpec) {
		ft, err := g.Flow(label, prov, tr, spec)
		if err != nil {
			t.Fatal(err)
		}
		traces = append(traces, ft)
	}
	for _, prov := range fingerprint.AllProviders() {
		scenario("windows_chrome", prov, fingerprint.TCP, tracegen.FlowSpec{Options: fingerprint.Options{ECH: true}})
		scenario("macOS_firefox", prov, fingerprint.TCP, tracegen.FlowSpec{Options: fingerprint.Options{ZeroRTT: true}})
	}
	for _, label := range []string{"android_chrome", "iOS_chrome", "windows_chrome"} {
		for _, spec := range []tracegen.FlowSpec{
			{Options: fingerprint.Options{ECH: true}},
			{Options: fingerprint.Options{ZeroRTT: true}},
			{Options: fingerprint.Options{Migration: true}},
			{Options: fingerprint.Options{Migration: true}, MigrateMidHandshake: true},
		} {
			spec.PayloadFrames = 2
			scenario(label, fingerprint.YouTube, fingerprint.QUIC, spec)
		}
	}

	var infos []*features.HandshakeInfo
	partials := 0
	for _, ft := range traces {
		info, err := pipeline.ExtractTrace(ft)
		if err != nil {
			info = partialInfo(t, ft)
			partials++
		}
		infos = append(infos, info)
		if info.Params != nil {
			lazy := *info
			lazy.Params = nil
			infos = append(infos, &lazy)
		}
	}
	if partials == 0 {
		t.Fatal("no hello-less 0-RTT flow among the traces")
	}
	return infos
}

// partialInfo is what a flow with no ClientHello yields: the transport
// attributes of its first client packet.
func partialInfo(t testing.TB, ft *tracegen.FlowTrace) *features.HandshakeInfo {
	t.Helper()
	if ft.Transport != fingerprint.QUIC {
		t.Fatalf("%s/%s: a TCP flow without a hello", ft.Label, ft.Provider)
	}
	for _, fr := range ft.Frames {
		var p packet.Parsed
		if fr.ClientToServer && new(packet.Parser).Parse(fr.Data, &p) == nil {
			return &features.HandshakeInfo{QUIC: true, TTL: p.TTL(), InitPacketSize: len(p.Payload)}
		}
	}
	t.Fatalf("%s/%s: no client frame", ft.Label, ft.Provider)
	return nil
}

// TestExtractMatchesHandWrittenOracle pins the row-driven extractor to the
// hand-written one it replaced: the same keys in each of the three maps, the
// same numbers and tokens, lists equal element by element (nil and empty
// are the same list to Transform, Summarize and vpextract).
func TestExtractMatchesHandWrittenOracle(t *testing.T) {
	infos := oracleInfos(t)
	for _, o := range []features.Options{{}, {KeepGrease: true}} {
		for i, info := range infos {
			got, want := features.ExtractWithOptions(info, o), referenceExtract(info, o)
			tag := fmt.Sprintf("grease=%v handshake %d (quic=%v)", o.KeepGrease, i, info.QUIC)
			if !sameKeys(got.Nums, want.Nums) || !sameKeys(got.Cats, want.Cats) || !sameKeys(got.Lists, want.Lists) {
				t.Fatalf("%s: key sets differ:\ngot  %v %v %v\nwant %v %v %v", tag,
					keys(got.Nums), keys(got.Cats), keys(got.Lists), keys(want.Nums), keys(want.Cats), keys(want.Lists))
			}
			for l, x := range want.Nums {
				if got.Nums[l] != x {
					t.Fatalf("%s: %s = %v, want %v", tag, l, got.Nums[l], x)
				}
			}
			for l, x := range want.Cats {
				if got.Cats[l] != x {
					t.Fatalf("%s: %s = %q, want %q", tag, l, got.Cats[l], x)
				}
			}
			for l, x := range want.Lists {
				if !slices.Equal(got.Lists[l], x) {
					t.Fatalf("%s: %s = %q, want %q", tag, l, got.Lists[l], x)
				}
			}
		}
	}
}

func sameKeys[V any](a, b map[string]V) bool {
	return slices.Equal(keys(a), keys(b))
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
