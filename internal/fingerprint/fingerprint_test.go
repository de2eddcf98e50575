package fingerprint

import (
	"encoding/json"
	"math/rand/v2"
	"testing"

	"videoplat/internal/quicproto"
	"videoplat/internal/tlsproto"
)

func newRng(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, seed^0x9e3779b9)) }

func TestAllPlatformsHaveProfiles(t *testing.T) {
	for _, label := range AllPlatformLabels() {
		p := ProfileFor(label)
		if p == nil {
			t.Fatalf("no profile for %s", label)
		}
		if p.Key.Label() != label {
			t.Errorf("profile key %q != label %q", p.Key.Label(), label)
		}
		if len(p.TLS.CipherSuites) == 0 || len(p.TLS.Extensions) == 0 {
			t.Errorf("%s: empty TLS profile", label)
		}
		if p.TCPP.TTL == 0 || p.TCPP.MSS == 0 {
			t.Errorf("%s: empty TCP profile", label)
		}
	}
	if len(AllPlatformLabels()) != 17 {
		t.Errorf("platform count = %d, want 17", len(AllPlatformLabels()))
	}
}

func TestSupportMatrixMatchesTable1(t *testing.T) {
	// Spot-check the dashes of Table 1.
	cases := []struct {
		label string
		prov  Provider
		want  bool
	}{
		{"windows_nativeApp", YouTube, false},
		{"windows_nativeApp", Netflix, true},
		{"macOS_nativeApp", Netflix, false},
		{"macOS_nativeApp", Amazon, true},
		{"android_chrome", YouTube, true},
		{"android_chrome", Netflix, false},
		{"iOS_safari", Disney, false},
		{"iOS_nativeApp", Disney, true},
		{"ps5_nativeApp", Amazon, true},
		{"androidTV_nativeApp", YouTube, true},
	}
	for _, c := range cases {
		if got := SupportMatrix(c.label, c.prov); got != c.want {
			t.Errorf("SupportMatrix(%s, %s) = %v, want %v", c.label, c.prov, got, c.want)
		}
	}
}

func TestQUICOnlyYouTubeOn12Platforms(t *testing.T) {
	count := 0
	for _, label := range AllPlatformLabels() {
		if SupportsQUIC(label, YouTube) {
			count++
		}
		for _, prov := range []Provider{Netflix, Disney, Amazon} {
			if SupportsQUIC(label, prov) {
				t.Errorf("%s claims QUIC for %s", label, prov)
			}
		}
	}
	if count != 12 {
		t.Errorf("QUIC platform count = %d, want 12 (Fig 12a)", count)
	}
}

func TestGenerateTCPFlow(t *testing.T) {
	rng := newRng(1)
	f, err := Generate(rng, "windows_chrome", Netflix, TCP, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if f.TTL != 128 {
		t.Errorf("TTL = %d", f.TTL)
	}
	if f.Hello == nil || f.Hello.ServerName() == "" {
		t.Fatal("missing hello / SNI")
	}
	if f.Hello.HasExtension(tlsproto.ExtQUICTransportParams) {
		t.Error("TCP flow has QUIC transport params")
	}
	// Marshal must parse back.
	ch, err := tlsproto.Parse(f.Hello.Marshal())
	if err != nil {
		t.Fatal(err)
	}
	if ch.ServerName() != f.Hello.ServerName() {
		t.Error("SNI mismatch after round trip")
	}
}

func TestGenerateQUICFlow(t *testing.T) {
	rng := newRng(2)
	f, err := Generate(rng, "windows_chrome", YouTube, QUIC, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ext, ok := f.Hello.Extension(tlsproto.ExtQUICTransportParams)
	if !ok {
		t.Fatal("missing transport params")
	}
	tp, err := quicproto.ParseTransportParameters(ext.Data)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := tp.Uint(quicproto.ParamMaxIdleTimeout); !ok || v != 30000 {
		t.Errorf("max_idle_timeout = %d, %v", v, ok)
	}
	ua, ok := tp.Get(quicproto.ParamUserAgent)
	if !ok || len(ua.Value) == 0 {
		t.Error("missing user_agent param")
	}
	if len(f.DCID) != 8 {
		t.Errorf("DCID len = %d", len(f.DCID))
	}
	if f.QUICTargetSize < 1200 || f.QUICTargetSize > 1250+60 {
		t.Errorf("target size = %d, want near the Chromium 1250 target", f.QUICTargetSize)
	}
	if alpn := f.Hello.ALPNProtocols(); len(alpn) != 1 || alpn[0] != "h3" {
		t.Errorf("ALPN = %v", alpn)
	}
}

func TestGenerateErrors(t *testing.T) {
	rng := newRng(3)
	if _, err := Generate(rng, "nope", YouTube, TCP, Options{}); err == nil {
		t.Error("unknown platform accepted")
	}
	if _, err := Generate(rng, "windows_nativeApp", YouTube, TCP, Options{}); err == nil {
		t.Error("unsupported provider accepted")
	}
	if _, err := Generate(rng, "windows_nativeApp", Netflix, QUIC, Options{}); err == nil {
		t.Error("QUIC for non-QUIC platform accepted")
	}
	if _, err := Generate(rng, "ps5_nativeApp", YouTube, QUIC, Options{}); err == nil {
		t.Error("QUIC for PS5 accepted")
	}
}

func TestChromiumExtensionOrderRandomized(t *testing.T) {
	rng := newRng(4)
	orders := map[string]bool{}
	for i := 0; i < 10; i++ {
		f, err := Generate(rng, "windows_chrome", YouTube, TCP, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var sig string
		for _, e := range f.Hello.Extensions {
			sig += string(rune(e.Type % 251))
		}
		orders[sig] = true
	}
	if len(orders) < 3 {
		t.Errorf("Chromium extension order not randomized: %d distinct orders", len(orders))
	}
}

func TestFirefoxExtensionOrderFixed(t *testing.T) {
	rng := newRng(5)
	var first []uint16
	for i := 0; i < 5; i++ {
		f, err := Generate(rng, "windows_firefox", Netflix, TCP, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Compare only deterministic extensions (session_ticket & psk vary).
		var types []uint16
		for _, e := range f.Hello.Extensions {
			if e.Type == tlsproto.ExtSessionTicket || e.Type == tlsproto.ExtPreSharedKey ||
				e.Type == tlsproto.ExtEarlyData {
				continue
			}
			types = append(types, e.Type)
		}
		if first == nil {
			first = types
			continue
		}
		if len(types) != len(first) {
			t.Fatalf("firefox ext count varies: %d vs %d", len(types), len(first))
		}
		for j := range types {
			if types[j] != first[j] {
				t.Fatalf("firefox ext order varies at %d", j)
			}
		}
	}
	if ProfileFor("windows_firefox").TLS.RecordLimit != 16385 {
		t.Error("firefox record_size_limit != 16385 (paper §3.3.1)")
	}
}

func TestOpenSetDriftChangesHello(t *testing.T) {
	base := map[int]bool{}
	drift := map[int]bool{}
	for i := 0; i < 30; i++ {
		rngA, rngB := newRng(uint64(100+i)), newRng(uint64(100+i))
		a, err := Generate(rngA, "windows_chrome", YouTube, TCP, Options{})
		if err != nil {
			t.Fatal(err)
		}
		b, err := Generate(rngB, "windows_chrome", YouTube, TCP, Options{OpenSet: true})
		if err != nil {
			t.Fatal(err)
		}
		base[len(a.Hello.CipherSuites)] = true
		drift[len(b.Hello.CipherSuites)] = true
	}
	for k := range drift {
		if base[k] {
			t.Errorf("open-set drift did not change cipher suite count (%d in both)", k)
		}
	}
}

func TestManagementVsContentSNI(t *testing.T) {
	rng := newRng(7)
	m, err := Generate(rng, "windows_chrome", YouTube, TCP, Options{ManagementFlow: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.SNI != "www.youtube.com" {
		t.Errorf("management SNI = %q", m.SNI)
	}
	c, err := Generate(rng, "windows_chrome", YouTube, TCP, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if c.SNI == m.SNI {
		t.Error("content SNI equals management SNI")
	}
}

func TestAppleFamilySharesStack(t *testing.T) {
	// iOS Chrome is a WebKit shell: suites must match iOS Safari exactly
	// (the source of the paper's iOS confusions).
	safari := ProfileFor("iOS_safari").TLS.CipherSuites
	chrome := ProfileFor("iOS_chrome").TLS.CipherSuites
	if len(safari) != len(chrome) {
		t.Fatalf("suite counts differ: %d vs %d", len(safari), len(chrome))
	}
	for i := range safari {
		if safari[i] != chrome[i] {
			t.Fatalf("suite %d differs", i)
		}
	}
}

func BenchmarkGenerateTCPFlow(b *testing.B) {
	rng := newRng(8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(rng, "windows_chrome", Netflix, TCP, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestProviderTransportJSONByName: both enums encode as their names in JSON,
// map keys included, and decode back; unknown names and values are errors.
func TestProviderTransportJSONByName(t *testing.T) {
	type pair struct {
		P Provider  `json:"p"`
		T Transport `json:"t"`
	}
	for _, p := range AllProviders() {
		for _, tr := range []Transport{TCP, QUIC} {
			blob, err := json.Marshal(pair{p, tr})
			if err != nil {
				t.Fatal(err)
			}
			if want := `{"p":"` + p.String() + `","t":"` + tr.String() + `"}`; string(blob) != want {
				t.Errorf("encoded %s, want %s", blob, want)
			}
			var back pair
			if err := json.Unmarshal(blob, &back); err != nil || back != (pair{p, tr}) {
				t.Errorf("decoded %s to %+v (err %v)", blob, back, err)
			}
		}
	}
	if blob, err := json.Marshal(map[Provider]int{Netflix: 1}); err != nil || string(blob) != `{"netflix":1}` {
		t.Errorf("map key encoded %s (err %v)", blob, err)
	}
	var back pair
	for _, bad := range []string{`{"p":"hulu"}`, `{"t":"udp"}`, `{"p":1}`} {
		if err := json.Unmarshal([]byte(bad), &back); err == nil {
			t.Errorf("decoded %s without error", bad)
		}
	}
	if _, err := json.Marshal(pair{P: Provider(NumProviders)}); err == nil {
		t.Error("encoded an invalid provider")
	}
	if _, err := json.Marshal(pair{T: QUIC + 1}); err == nil {
		t.Error("encoded an invalid transport")
	}
}

// ProfileFor returns the profile of a platform label, or nil.
func ProfileFor(label string) *Profile { return profiles[label] }
