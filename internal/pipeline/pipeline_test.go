package pipeline

import (
	"bytes"
	"encoding/gob"
	"runtime"
	"strings"
	"testing"
	"time"
	"unsafe"

	"videoplat/internal/features"
	"videoplat/internal/fingerprint"
	"videoplat/internal/ml"
	"videoplat/internal/tracegen"
)

func trainSmallBank(t testing.TB, seed uint64, scale float64) (*Bank, *tracegen.Dataset) {
	t.Helper()
	g := tracegen.New(seed)
	ds, err := g.LabDataset(scale, fingerprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bank, err := TrainBank(ds, TrainConfig{Forest: ml.ForestConfig{
		NumTrees: 15, MaxDepth: 20, MaxFeatures: 34, Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	return bank, ds
}

// decidedFlowBytes is the heap a decided flow may hold in a Pipeline's
// table: its flowState, table entry and map slot, and its SNI. The flows of
// TestFlowStateFootprint measure 670 bytes each on amd64 with Go 1.24.
const decidedFlowBytes = 700

// TestFlowStateFootprint pins what a tracked flow costs once it is decided,
// the resident bytes at N active flows a daemon pays. A flowState fits the
// 416-byte size class, and 10^5 classified flows in a default-Config
// Pipeline hold at most decidedFlowBytes of heap each.
func TestFlowStateFootprint(t *testing.T) {
	if size := unsafe.Sizeof(flowState{}); size > 416 {
		t.Errorf("flowState is %d bytes, want <= 416", size)
	}

	const flows = 100_000
	bank := platformBank(t, "windows_chrome", fingerprint.TCP, "")
	ft, err := tracegen.New(62).Flow("windows_chrome", fingerprint.YouTube, fingerprint.TCP, tracegen.FlowSpec{})
	if err != nil {
		t.Fatal(err)
	}
	hello := append([]byte(nil), ft.Frames[3].Data...) // the ClientHello segment
	client := hello[26:30]                             // its IPv4 source
	p := New(bank)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < flows; i++ {
		client[1], client[2], client[3] = byte(i>>16), byte(i>>8), byte(i)
		p.HandlePacket(ft.Start, hello)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if got := p.Stats().Verdicts[VerdictClassified]; got != flows {
		t.Fatalf("%d of %d flows classified", got, flows)
	}
	perFlow := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / flows
	runtime.KeepAlive(p)
	if perFlow > decidedFlowBytes {
		t.Errorf("a decided flow holds %.0f bytes of heap, want <= %d", perFlow, decidedFlowBytes)
	}
	t.Logf("%.0f bytes per decided flow", perFlow)
}

func TestMatchProvider(t *testing.T) {
	cases := []struct {
		sni     string
		prov    fingerprint.Provider
		content bool
		ok      bool
	}{
		{"rr4---sn-abc.googlevideo.com", fingerprint.YouTube, true, true},
		{"www.youtube.com", fingerprint.YouTube, false, true},
		{"ipv4-c001-syd001-ix.1.oca.nflxvideo.net", fingerprint.Netflix, true, true},
		{"www.netflix.com", fingerprint.Netflix, false, true},
		{"vod-bgc-na-west-1.media.dssott.com", fingerprint.Disney, true, true},
		{"www.disneyplus.com", fingerprint.Disney, false, true},
		{"s3-dub-w9.cf.dash.row.aiv-cdn.net", fingerprint.Amazon, true, true},
		{"www.primevideo.com", fingerprint.Amazon, false, true},
		{"example.com", 0, false, false},
		{"", 0, false, false},
	}
	for _, c := range cases {
		prov, content, ok := MatchProvider(c.sni)
		if ok != c.ok || (ok && (prov != c.prov || content != c.content)) {
			t.Errorf("MatchProvider(%q) = %v/%v/%v", c.sni, prov, content, ok)
		}
	}
}

func TestDeviceAgentOf(t *testing.T) {
	if DeviceOf("windows_chrome") != "windows" || AgentOf("windows_chrome") != "chrome" {
		t.Error("windows_chrome mapping wrong")
	}
	if DeviceOf("androidTV_nativeApp") != "TV" || DeviceOf("ps5_nativeApp") != "TV" {
		t.Error("TV mapping wrong")
	}
	if AgentOf("ps5_nativeApp") != "nativeApp" {
		t.Error("agent mapping wrong")
	}
}

func TestExtractTraceTCPandQUIC(t *testing.T) {
	g := tracegen.New(1)
	tcp, err := g.Flow("windows_firefox", fingerprint.Netflix, fingerprint.TCP, tracegen.FlowSpec{})
	if err != nil {
		t.Fatal(err)
	}
	info, err := ExtractTrace(tcp)
	if err != nil {
		t.Fatal(err)
	}
	if info.QUIC {
		t.Error("TCP flow marked QUIC")
	}
	if info.TCPMSS != 1460 || info.TCPWScale != 8 {
		t.Errorf("TCP opts: mss=%d wscale=%d", info.TCPMSS, info.TCPWScale)
	}
	if info.Hello == nil || info.Hello.RecordSizeLimit() != 16385 {
		t.Error("firefox record_size_limit not recovered from packets")
	}

	quic, err := g.Flow("macOS_chrome", fingerprint.YouTube, fingerprint.QUIC, tracegen.FlowSpec{})
	if err != nil {
		t.Fatal(err)
	}
	qinfo, err := ExtractTrace(quic)
	if err != nil {
		t.Fatal(err)
	}
	if !qinfo.QUIC || qinfo.InitPacketSize < 1200 {
		t.Errorf("QUIC extract: quic=%v size=%d", qinfo.QUIC, qinfo.InitPacketSize)
	}
	v := features.Extract(qinfo)
	if v.Nums["q2"] != 30000 {
		t.Errorf("q2 from packets = %v", v.Nums["q2"])
	}
}

func TestBankTrainsAndClassifiesClosedSet(t *testing.T) {
	if testing.Short() {
		t.Skip("bank training is slow")
	}
	bank, ds := trainSmallBank(t, 2, 0.04)
	correct, composite, total := 0, 0, 0
	for i, ft := range ds.Flows {
		if i%3 != 0 { // evaluate a third for speed; training set recall
			continue
		}
		info, err := ExtractTrace(ft)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := bank.Classify(ft.Provider, ft.Transport, features.Extract(info))
		if err != nil {
			t.Fatal(err)
		}
		total++
		if pred.Platform == ft.Label {
			correct++
		}
		if pred.Status == Composite {
			composite++
		}
	}
	if acc := float64(correct) / float64(total); acc < 0.85 {
		t.Errorf("train-set platform accuracy = %.3f, want >= 0.85", acc)
	}
	if rate := float64(composite) / float64(total); rate < 0.6 {
		t.Errorf("composite-confidence rate = %.3f, want >= 0.6", rate)
	}
}

func TestConfidenceSelectorFallback(t *testing.T) {
	// A prediction with low composite confidence must degrade to Partial or
	// Unknown, never stay Composite. Build a synthetic low-confidence case
	// by classifying a Netflix hello with a YouTube model bank trained on
	// few samples. We assert only on selector semantics.
	bank, ds := trainSmallBank(t, 3, 0.02)
	for _, ft := range ds.Flows[:50] {
		info, err := ExtractTrace(ft)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := bank.Classify(ft.Provider, ft.Transport, features.Extract(info))
		if err != nil {
			t.Fatal(err)
		}
		switch pred.Status {
		case Composite:
			if pred.PlatformConf < ConfidenceThreshold {
				t.Fatalf("composite with conf %.2f", pred.PlatformConf)
			}
			if pred.Device != DeviceOf(pred.Platform) || pred.Agent != AgentOf(pred.Platform) {
				t.Fatal("composite prediction not internally consistent")
			}
		case Partial:
			if pred.DeviceConf < ConfidenceThreshold && pred.AgentConf < ConfidenceThreshold {
				t.Fatal("partial without any confident objective")
			}
		case Unknown:
			if pred.PlatformConf >= ConfidenceThreshold {
				t.Fatal("unknown with confident composite")
			}
		}
	}
}

func TestStreamingPipelineEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("bank training is slow")
	}
	bank, _ := trainSmallBank(t, 4, 0.03)
	p := New(bank)

	g := tracegen.New(99)
	flows := []*tracegen.FlowTrace{}
	for _, spec := range []struct {
		label string
		prov  fingerprint.Provider
		tr    fingerprint.Transport
	}{
		{"windows_chrome", fingerprint.YouTube, fingerprint.QUIC},
		{"iOS_nativeApp", fingerprint.Disney, fingerprint.TCP},
		{"ps5_nativeApp", fingerprint.Amazon, fingerprint.TCP},
	} {
		ft, err := g.Flow(spec.label, spec.prov, spec.tr, tracegen.FlowSpec{})
		if err != nil {
			t.Fatal(err)
		}
		flows = append(flows, ft)
	}

	classified := map[string]*FlowRecord{}
	for _, ft := range flows {
		for _, fr := range ft.Frames {
			rec, err := p.HandlePacket(ft.Start.Add(fr.Offset), fr.Data)
			if err != nil {
				t.Fatal(err)
			}
			if rec != nil {
				classified[rec.SNI] = rec
			}
		}
	}
	if len(classified) != 3 {
		t.Fatalf("classified %d flows, want 3", len(classified))
	}
	for sni, rec := range classified {
		if !rec.Verdict.ClassifierRan() {
			t.Errorf("%s not classified", sni)
		}
		if rec.Provider == fingerprint.YouTube && rec.Transport != fingerprint.QUIC {
			t.Errorf("%s transport = %v", sni, rec.Transport)
		}
	}
	// Telemetry accumulates beyond classification.
	final := p.Flows()
	if len(final) != 3 {
		t.Fatalf("flow records = %d", len(final))
	}
	for _, rec := range final {
		if rec.BytesDown == 0 {
			t.Errorf("%s: no downstream bytes", rec.SNI)
		}
		if rec.Duration() <= 0 {
			t.Errorf("%s: non-positive duration", rec.SNI)
		}
	}
}

func TestPipelineIgnoresNonVideoTraffic(t *testing.T) {
	bank := &Bank{}
	p := New(bank)
	// Garbage frame and a non-443 frame must be ignored without error.
	if _, err := p.HandlePacket(time.Now(), []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if got := p.Stats().Packets; got != 1 {
		t.Errorf("packets = %d", got)
	}
}

func TestBankSerializationRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("bank training is slow")
	}
	bank, ds := trainSmallBank(t, 6, 0.02)
	blob, err := bank.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var restored Bank
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	for _, ft := range ds.Flows[:30] {
		info, err := ExtractTrace(ft)
		if err != nil {
			t.Fatal(err)
		}
		v := features.Extract(info)
		a, err := bank.Classify(ft.Provider, ft.Transport, v)
		if err != nil {
			t.Fatal(err)
		}
		b, err := restored.Classify(ft.Provider, ft.Transport, v)
		if err != nil {
			t.Fatal(err)
		}
		if a.Platform != b.Platform || a.PlatformConf != b.PlatformConf {
			t.Fatalf("prediction differs after round trip: %+v vs %+v", a, b)
		}
	}
	if err := restored.UnmarshalBinary([]byte("junk")); err == nil {
		t.Error("junk accepted")
	}
}

func TestBankSerializationVersionAndFormat(t *testing.T) {
	if testing.Short() {
		t.Skip("bank training is slow")
	}
	bank, _ := trainSmallBank(t, 6, 0.02)
	bank.Version = "v0042"
	blob, err := bank.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var restored Bank
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if restored.Version != "v0042" {
		t.Errorf("version after round trip = %q", restored.Version)
	}

	// A blob from a future format must be refused with a clear error, not
	// half-decoded.
	var buf bytes.Buffer
	future := bankDTO{Format: bankFormat + 1}
	if err := gob.NewEncoder(&buf).Encode(future); err != nil {
		t.Fatal(err)
	}
	err = restored.UnmarshalBinary(buf.Bytes())
	if err == nil || !strings.Contains(err.Error(), "newer build") {
		t.Errorf("future format error = %v", err)
	}
}
