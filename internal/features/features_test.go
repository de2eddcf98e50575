package features

import (
	"math/rand/v2"
	"testing"

	"videoplat/internal/fingerprint"
	"videoplat/internal/tlsproto"
)

func newRng(seed uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, 99)) }

// infoFromFingerprint builds a HandshakeInfo directly from a generated flow.
func infoFromFingerprint(f *fingerprint.Flow) *HandshakeInfo {
	info := &HandshakeInfo{
		QUIC:  f.Transport == fingerprint.QUIC,
		TTL:   f.TTL,
		Hello: f.Hello,
	}
	if info.QUIC {
		info.InitPacketSize = f.QUICTargetSize
	} else {
		info.InitPacketSize = 66
		info.TCPFlags = 0x02
		if f.ECN {
			info.TCPFlags |= 0xc0
		}
		info.TCPWindow = f.Window
		info.TCPMSS = f.MSS
		info.TCPWScale = f.WScale
		info.TCPSACK = f.SACK
	}
	return info
}

func TestTable2Counts(t *testing.T) {
	if len(Table2) != 62 {
		t.Fatalf("Table2 has %d attributes, want 62", len(Table2))
	}
	kinds := map[Kind]int{}
	for _, a := range Table2 {
		kinds[a.Kind]++
	}
	// Table 2's attribute-type column gives 19 numerical, 9 categorical,
	// 10 list, 17 presence and 7 length attributes. (§4.2's prose says
	// "20 numerical, 31 categorical, 11 list", but §4.2.2's authoritative
	// cost accounting — 43 low-cost, 9 categorical medium-cost, 10 list
	// high-cost — matches the table, so we follow the table.)
	if kinds[List] != 10 {
		t.Errorf("list attributes = %d, want 10 (§4.2.2)", kinds[List])
	}
	if kinds[Categorical] != 9 {
		t.Errorf("categorical attributes = %d, want 9 (§4.2.2)", kinds[Categorical])
	}
	if kinds[Numerical] != 19 {
		t.Errorf("numerical attributes = %d, want 19", kinds[Numerical])
	}
	if kinds[Presence] != 17 {
		t.Errorf("presence attributes = %d, want 17 (§4.2.1)", kinds[Presence])
	}
	if kinds[Length] != 7 {
		t.Errorf("length attributes = %d, want 7 (§4.2.1)", kinds[Length])
	}
	if got := len(ForTransport(true)); got != 50 {
		t.Errorf("QUIC-applicable = %d, want 50 (§4.3.1)", got)
	}
	if got := len(ForTransport(false)); got != 42 {
		t.Errorf("TCP-applicable = %d, want 42", got)
	}
	// Low-cost count: paper §4.2.2 says 43 numerical/length/presence
	// attributes are low-cost.
	low := 0
	for _, a := range Table2 {
		if a.Cost == Low {
			low++
		}
	}
	if low != 43 {
		t.Errorf("low-cost attributes = %d, want 43", low)
	}
}

func TestExtractTCPFlow(t *testing.T) {
	rng := newRng(1)
	f, err := fingerprint.Generate(rng, "windows_firefox", fingerprint.Netflix, fingerprint.TCP, fingerprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	v := Extract(infoFromFingerprint(f))
	if v.Nums["t2"] != float64(f.TTL) {
		t.Errorf("t2 = %v", v.Nums["t2"])
	}
	if v.Nums["t9"] != 1 {
		t.Errorf("t9 (syn) = %v", v.Nums["t9"])
	}
	if v.Nums["o13"] != 16385 {
		t.Errorf("o13 record_size_limit = %v, want 16385", v.Nums["o13"])
	}
	if len(v.Lists["m3"]) != len(f.Hello.CipherSuites) {
		t.Errorf("m3 len = %d", len(v.Lists["m3"]))
	}
	if len(v.Lists["o14"]) == 0 {
		t.Error("firefox delegated_credentials missing")
	}
	if _, ok := v.Nums["q2"]; ok {
		t.Error("QUIC attribute extracted from TCP flow")
	}
	if v.Nums["m1"] != float64(f.Hello.HandshakeLength) {
		t.Errorf("m1 = %v, want %d", v.Nums["m1"], f.Hello.HandshakeLength)
	}
}

func TestExtractQUICFlow(t *testing.T) {
	rng := newRng(2)
	f, err := fingerprint.Generate(rng, "windows_chrome", fingerprint.YouTube, fingerprint.QUIC, fingerprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	v := Extract(infoFromFingerprint(f))
	if v.Nums["q2"] != 30000 {
		t.Errorf("q2 max_idle_timeout = %v", v.Nums["q2"])
	}
	if v.Cats["q18"] == "" {
		t.Error("q18 user_agent missing")
	}
	if v.Cats["q19"] != "Q050" {
		t.Errorf("q19 = %q", v.Cats["q19"])
	}
	if len(v.Lists["q1"]) == 0 {
		t.Error("q1 quic_parameters missing")
	}
	// GREASE transport params must be collapsed.
	for _, tok := range v.Lists["q1"] {
		if tok == greaseToken {
			return
		}
	}
	t.Error("no GREASE token in q1 for a Chromium flow")
}

func TestGreaseNormalization(t *testing.T) {
	rngs := []*rand.Rand{newRng(10), newRng(11)}
	var tokens [2]string
	for i, rng := range rngs {
		f, err := fingerprint.Generate(rng, "macOS_chrome", fingerprint.YouTube, fingerprint.TCP, fingerprint.Options{})
		if err != nil {
			t.Fatal(err)
		}
		v := Extract(infoFromFingerprint(f))
		tokens[i] = v.Lists["m3"][0] // Chromium puts GREASE first
	}
	if tokens[0] != greaseToken || tokens[1] != greaseToken {
		t.Errorf("GREASE suites not normalized: %q %q", tokens[0], tokens[1])
	}
}

func TestLengthValueDistinguishesAbsentFromEmpty(t *testing.T) {
	ch := &tlsproto.ClientHello{LegacyVersion: tlsproto.VersionTLS12,
		CipherSuites: []uint16{0x1301}, CompressionMethods: []byte{0},
		Extensions: []tlsproto.Extension{{Type: tlsproto.ExtSessionTicket, Data: nil}}}
	ch.Marshal()
	withTicket := Extract(&HandshakeInfo{Hello: ch})
	ch2 := &tlsproto.ClientHello{LegacyVersion: tlsproto.VersionTLS12,
		CipherSuites: []uint16{0x1301}, CompressionMethods: []byte{0}}
	ch2.Marshal()
	without := Extract(&HandshakeInfo{Hello: ch2})
	if withTicket.Nums["o15"] == without.Nums["o15"] {
		t.Errorf("empty-present (%v) vs absent (%v) session_ticket indistinguishable",
			withTicket.Nums["o15"], without.Nums["o15"])
	}
}

func TestEncoderFitTransform(t *testing.T) {
	rng := newRng(3)
	var samples []*FieldValues
	for i := 0; i < 40; i++ {
		label := "windows_chrome"
		if i%2 == 1 {
			label = "windows_firefox"
		}
		f, err := fingerprint.Generate(rng, label, fingerprint.YouTube, fingerprint.QUIC, fingerprint.Options{})
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, Extract(infoFromFingerprint(f)))
	}
	enc, err := NewEncoder(true, nil)
	if err != nil {
		t.Fatal(err)
	}
	enc.Fit(samples)
	if enc.Width() < 50 {
		t.Fatalf("width = %d", enc.Width())
	}
	vecs := enc.TransformAll(samples)
	for i, v := range vecs {
		if len(v) != enc.Width() {
			t.Fatalf("sample %d width %d", i, len(v))
		}
	}
	// Chrome and Firefox must differ on record_size_limit column.
	cols := enc.AttrColumns("o13")
	if len(cols) != 1 {
		t.Fatalf("o13 columns = %v", cols)
	}
	if vecs[0][cols[0]] == vecs[1][cols[0]] {
		t.Error("o13 identical between chrome and firefox")
	}
	if len(enc.vocabs["m3"]) == 0 {
		t.Error("m3 vocab empty")
	}
}

func TestEncoderSubsetAndErrors(t *testing.T) {
	enc, err := NewEncoder(false, []string{"t1", "t2", "t11"})
	if err != nil {
		t.Fatal(err)
	}
	if enc.Width() != 3 {
		t.Errorf("width = %d", enc.Width())
	}
	if _, err := NewEncoder(false, []string{"q2"}); err == nil {
		t.Error("QUIC attribute accepted for TCP encoder")
	}
	if _, err := NewEncoder(true, []string{"t3"}); err == nil {
		t.Error("TCP-only attribute accepted for QUIC encoder")
	}
}

func TestEncoderUnseenTokenMapsToZero(t *testing.T) {
	enc, err := NewEncoder(false, []string{"m2"})
	if err != nil {
		t.Fatal(err)
	}
	train := NewFieldValues()
	train.Cats["m2"] = "0x303"
	enc.Fit([]*FieldValues{train})
	test := NewFieldValues()
	test.Cats["m2"] = "0x9999"
	if v := enc.Transform(test); v[0] != 0 {
		t.Errorf("unseen token encoded as %v", v[0])
	}
	if v := enc.Transform(train); v[0] != 1 {
		t.Errorf("seen token encoded as %v", v[0])
	}
}

func TestSummarize(t *testing.T) {
	rng := newRng(4)
	var samples []*FieldValues
	var labels []string
	for _, label := range []string{"windows_chrome", "windows_firefox", "macOS_safari", "android_nativeApp"} {
		for i := 0; i < 20; i++ {
			f, err := fingerprint.Generate(rng, label, fingerprint.YouTube, fingerprint.QUIC, fingerprint.Options{})
			if err != nil {
				t.Fatal(err)
			}
			samples = append(samples, Extract(infoFromFingerprint(f)))
			labels = append(labels, label)
		}
	}
	sums := Summarize(samples, labels, ForTransport(true))
	byLabel := map[string]FieldSummary{}
	for _, s := range sums {
		byLabel[s.Attr.Label] = s
	}
	// record_size_limit (o13): 0 for chrome/safari, 16385 for firefox ->
	// 2 unique values and firefox has a unique distribution.
	o13 := byLabel["o13"]
	if o13.UniqueValues != 2 {
		t.Errorf("o13 unique values = %d, want 2", o13.UniqueValues)
	}
	if o13.UniquePlatforms != 1 {
		t.Errorf("o13 unique platforms = %d, want 1 (firefox)", o13.UniquePlatforms)
	}
	// user_agent (q18) differs on every platform that sends it.
	q18 := byLabel["q18"]
	if q18.UniqueValues < 2 {
		t.Errorf("q18 unique values = %d", q18.UniqueValues)
	}
	// Medians are normalized.
	for _, s := range sums {
		for pl, m := range s.MedianByPlatform {
			if m < 0 || m > 1 {
				t.Errorf("%s median for %s = %v out of [0,1]", s.Attr.Label, pl, m)
			}
		}
	}
}
