package tlsproto

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"videoplat/internal/wire"
)

// sampleHello builds a Chrome-like ClientHello for tests.
func sampleHello() *ClientHello {
	ch := &ClientHello{
		LegacyVersion: VersionTLS12,
		SessionID:     make([]byte, 32),
		CipherSuites: []uint16{
			0x1301, 0x1302, 0x1303, 0xc02b, 0xc02f, 0xc02c, 0xc030,
			0xcca9, 0xcca8, 0xc013, 0xc014, 0x009c, 0x009d, 0x002f, 0x0035,
		},
		CompressionMethods: []byte{0},
	}
	ch.Random[0] = 0xde
	ch.Extensions = []Extension{
		{ExtServerName, ServerNameData("rr4---sn-ntqe6ne7.googlevideo.com")},
		{ExtExtendedMasterSecret, nil},
		{ExtRenegotiationInfo, RenegotiationInfoData()},
		{ExtSupportedGroups, Uint16ListData([]uint16{0x001d, 0x0017, 0x0018})},
		{ExtECPointFormats, ECPointFormatsData([]byte{0})},
		{ExtSessionTicket, nil},
		{ExtALPN, ALPNData([]string{"h2", "http/1.1"})},
		{ExtStatusRequest, StatusRequestData()},
		{ExtSignatureAlgorithms, Uint16ListData([]uint16{0x0403, 0x0804, 0x0401})},
		{ExtSCT, nil},
		{ExtKeyShare, KeyShareData([]uint16{0x001d}, []int{32})},
		{ExtPSKKeyExchangeModes, PSKKeyExchangeModesData([]byte{1})},
		{ExtSupportedVersions, SupportedVersionsData([]uint16{VersionTLS13, VersionTLS12})},
		{ExtCompressCertificate, CompressCertificateData([]uint16{2})},
		{ExtApplicationSettings, ALPNData([]string{"h2"})},
		{ExtRecordSizeLimit, RecordSizeLimitData(16385)},
		{ExtPadding, PaddingData(175)},
	}
	return ch
}

func TestMarshalParseRoundTrip(t *testing.T) {
	ch := sampleHello()
	msg := ch.Marshal()
	got, err := Parse(msg)
	if err != nil {
		t.Fatal(err)
	}
	if got.LegacyVersion != ch.LegacyVersion {
		t.Errorf("version = %#x", got.LegacyVersion)
	}
	if !reflect.DeepEqual(got.CipherSuites, ch.CipherSuites) {
		t.Errorf("cipher suites mismatch")
	}
	if !bytes.Equal(got.CompressionMethods, ch.CompressionMethods) {
		t.Errorf("compression mismatch")
	}
	if len(got.Extensions) != len(ch.Extensions) {
		t.Fatalf("extension count = %d, want %d", len(got.Extensions), len(ch.Extensions))
	}
	for i := range got.Extensions {
		if got.Extensions[i].Type != ch.Extensions[i].Type {
			t.Errorf("ext %d type = %d, want %d", i, got.Extensions[i].Type, ch.Extensions[i].Type)
		}
		if !bytes.Equal(got.Extensions[i].Data, ch.Extensions[i].Data) {
			t.Errorf("ext %d data mismatch", i)
		}
	}
	if got.HandshakeLength != ch.HandshakeLength {
		t.Errorf("HandshakeLength = %d, want %d", got.HandshakeLength, ch.HandshakeLength)
	}
	if got.ExtensionsLength != ch.ExtensionsLength {
		t.Errorf("ExtensionsLength = %d, want %d", got.ExtensionsLength, ch.ExtensionsLength)
	}
}

func TestParseRecord(t *testing.T) {
	ch := sampleHello()
	rec := ch.MarshalRecord()
	got, err := ParseRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	if got.ServerName() != "rr4---sn-ntqe6ne7.googlevideo.com" {
		t.Errorf("ServerName = %q", got.ServerName())
	}
}

func TestParseRecordSplitAcrossRecords(t *testing.T) {
	ch := sampleHello()
	hs := ch.Marshal()
	// Split the handshake across two records.
	cut := len(hs) / 2
	var buf bytes.Buffer
	for _, frag := range [][]byte{hs[:cut], hs[cut:]} {
		buf.Write([]byte{recordTypeHandshake, byte(VersionTLS10 >> 8), byte(VersionTLS10 & 0xff), byte(len(frag) >> 8), byte(len(frag))})
		buf.Write(frag)
	}
	got, err := ParseRecord(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.CipherSuites) != len(ch.CipherSuites) {
		t.Errorf("cipher suites = %d", len(got.CipherSuites))
	}
}

func TestAccessors(t *testing.T) {
	ch := sampleHello()
	msg := ch.Marshal()
	got, err := Parse(msg)
	if err != nil {
		t.Fatal(err)
	}
	if g := got.SupportedGroups(); !reflect.DeepEqual(g, []uint16{0x001d, 0x0017, 0x0018}) {
		t.Errorf("SupportedGroups = %v", g)
	}
	if a := got.ALPNProtocols(); !reflect.DeepEqual(a, []string{"h2", "http/1.1"}) {
		t.Errorf("ALPN = %v", a)
	}
	ext := func(typ uint16) Extension {
		t.Helper()
		e, ok := got.Extension(typ)
		if !ok {
			t.Fatalf("extension %d missing", typ)
		}
		return e
	}
	var alps []string
	for _, name := range ext(ExtApplicationSettings).AppendALPN(nil) {
		alps = append(alps, string(name))
	}
	if !reflect.DeepEqual(alps, []string{"h2"}) {
		t.Errorf("ALPS = %v", alps)
	}
	if v := ext(ExtSupportedVersions).AppendU8Uint16List(nil); !reflect.DeepEqual(v, []uint16{VersionTLS13, VersionTLS12}) {
		t.Errorf("supported_versions = %v", v)
	}
	if m := ext(ExtPSKKeyExchangeModes).U8PrefixedBytes(); !bytes.Equal(m, []byte{1}) {
		t.Errorf("PSKModes = %v", m)
	}
	if k := ext(ExtKeyShare).AppendKeyShareGroups(nil); !reflect.DeepEqual(k, []uint16{0x001d}) {
		t.Errorf("key_share groups = %v", k)
	}
	if c := got.CompressCertificateAlgorithms(); !reflect.DeepEqual(c, []uint16{2}) {
		t.Errorf("CompressCert = %v", c)
	}
	if l := got.RecordSizeLimit(); l != 16385 {
		t.Errorf("RecordSizeLimit = %d", l)
	}
	if p := got.ECPointFormats(); !bytes.Equal(p, []byte{0}) {
		t.Errorf("ECPointFormats = %v", p)
	}
	if s := ext(ExtSignatureAlgorithms).AppendUint16List(nil); !reflect.DeepEqual(s, []uint16{0x0403, 0x0804, 0x0401}) {
		t.Errorf("signature_algorithms = %v", s)
	}
	if e := ext(ExtStatusRequest); len(e.Data) == 0 || e.Data[0] != 1 {
		t.Errorf("status_request = %x", e.Data)
	}
	if n := len(ext(ExtPadding).Data); n != 175 {
		t.Errorf("padding len = %d", n)
	}
	if _, ok := got.Extension(ExtEarlyData); ok {
		t.Error("unexpected early_data")
	}
	if got.HasExtension(ExtEncryptThenMac) {
		t.Error("unexpected encrypt_then_mac")
	}
	if !got.HasExtension(ExtSessionTicket) {
		t.Error("missing session_ticket")
	}
	types := got.ExtensionTypes()
	if types[0] != ExtServerName || len(types) != len(ch.Extensions) {
		t.Errorf("ExtensionTypes = %v", types)
	}
}

func TestParseRejectsNonClientHello(t *testing.T) {
	msg := sampleHello().Marshal()
	msg[0] = 2 // ServerHello
	if _, err := Parse(msg); err != ErrNotClientHello {
		t.Errorf("err = %v, want ErrNotClientHello", err)
	}
}

func TestParseRecordRejectsNonHandshake(t *testing.T) {
	rec := sampleHello().MarshalRecord()
	rec[0] = 23 // application data
	if _, err := ParseRecord(rec); err != ErrNotHandshake {
		t.Errorf("err = %v, want ErrNotHandshake", err)
	}
}

func TestParseTruncations(t *testing.T) {
	msg := sampleHello().Marshal()
	for n := 0; n < len(msg); n += 7 {
		if _, err := Parse(msg[:n]); err == nil {
			t.Errorf("Parse of %d/%d bytes succeeded", n, len(msg))
		}
	}
}

func TestParseNoExtensions(t *testing.T) {
	ch := &ClientHello{
		LegacyVersion:      VersionTLS12,
		CipherSuites:       []uint16{0x002f},
		CompressionMethods: []byte{0},
	}
	msg := ch.Marshal()
	got, err := Parse(msg)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Extensions) != 0 || got.ExtensionsLength != 0 {
		t.Errorf("extensions = %v", got.Extensions)
	}
	if got.ServerName() != "" {
		t.Errorf("ServerName = %q", got.ServerName())
	}
}

func TestParseFuzzResilience(t *testing.T) {
	// Parsing arbitrary mutations must never panic and must either error or
	// produce a self-consistent hello.
	base := sampleHello().Marshal()
	f := func(pos int, val byte, cut int) bool {
		msg := append([]byte{}, base...)
		if pos < 0 {
			pos = -pos
		}
		msg[pos%len(msg)] = val
		if cut < 0 {
			cut = -cut
		}
		msg = msg[:len(msg)-cut%32]
		ch, err := Parse(msg)
		if err != nil {
			return true
		}
		_ = ch.ServerName()
		_ = ch.SupportedGroups()
		_ = ch.ALPNProtocols()
		for _, e := range ch.Extensions {
			_ = e.AppendKeyShareGroups(nil)
			_ = e.AppendU8Uint16List(nil)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestGreaseInHello(t *testing.T) {
	ch := sampleHello()
	ch.CipherSuites = append([]uint16{wire.GreaseValue(3)}, ch.CipherSuites...)
	ch.Extensions = append([]Extension{{wire.GreaseValue(5), nil}}, ch.Extensions...)
	got, err := Parse(ch.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if !wire.IsGrease(got.CipherSuites[0]) {
		t.Errorf("first suite = %#x", got.CipherSuites[0])
	}
	if !wire.IsGrease(got.Extensions[0].Type) {
		t.Errorf("first ext = %#x", got.Extensions[0].Type)
	}
}

func BenchmarkMarshalClientHello(b *testing.B) {
	ch := sampleHello()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = ch.Marshal()
	}
}
