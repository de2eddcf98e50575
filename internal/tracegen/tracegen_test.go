package tracegen

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"io"
	"strings"
	"testing"
	"time"

	"videoplat/internal/fingerprint"
	"videoplat/internal/packet"
	"videoplat/internal/pcap"
	"videoplat/internal/quicproto"
	"videoplat/internal/tlsproto"
)

func TestTCPFlowRendersParseableHandshake(t *testing.T) {
	g := New(1)
	ft, err := g.Flow("windows_firefox", fingerprint.Netflix, fingerprint.TCP, FlowSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ft.Frames) < 5 {
		t.Fatalf("frames = %d", len(ft.Frames))
	}
	var p packet.Parser
	var out packet.Parsed
	// Frame 0 must be the SYN with Firefox/Windows stack parameters.
	if err := p.Parse(ft.Frames[0].Data, &out); err != nil {
		t.Fatal(err)
	}
	if out.TCP.Flags&packet.FlagSYN == 0 {
		t.Error("first frame not SYN")
	}
	if out.IP4.TTL >= 128 || out.IP4.TTL < 120 {
		t.Errorf("observed TTL = %d, want 128 minus a few hops", out.IP4.TTL)
	}
	if out.TCP.MSS() != 1460 {
		t.Errorf("MSS = %d", out.TCP.MSS())
	}
	// The first client frame carrying payload must be a parseable
	// ClientHello record naming a Netflix content host.
	for _, fr := range ft.Frames {
		if err := p.Parse(fr.Data, &out); err != nil {
			t.Fatal(err)
		}
		if !fr.ClientToServer || len(out.Payload) == 0 {
			continue
		}
		ch, err := tlsproto.ParseRecord(out.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if sni := ch.ServerName(); !strings.Contains(sni, "nflxvideo.net") {
			t.Errorf("SNI = %q", sni)
		}
		return
	}
	t.Error("no client payload frame")
}

func TestQUICFlowRendersDecryptableInitial(t *testing.T) {
	g := New(2)
	ft, err := g.Flow("macOS_chrome", fingerprint.YouTube, fingerprint.QUIC, FlowSpec{})
	if err != nil {
		t.Fatal(err)
	}
	var p packet.Parser
	var out packet.Parsed
	if err := p.Parse(ft.Frames[0].Data, &out); err != nil {
		t.Fatal(err)
	}
	if !out.Has(packet.LayerUDP) {
		t.Fatal("first frame not UDP")
	}
	init, err := quicproto.ParseInitial(out.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if init.WireSize < 1200 {
		t.Errorf("initial size = %d", init.WireSize)
	}
	if len(init.Crypto) != 1 || init.Crypto[0].Offset != 0 {
		t.Fatalf("CRYPTO frames = %d, want the whole hello in one at offset 0", len(init.Crypto))
	}
	ch, err := tlsproto.Parse(init.Crypto[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(ch.ServerName(), "googlevideo.com") {
		t.Errorf("SNI = %q", ch.ServerName())
	}
	ext, ok := ch.Extension(tlsproto.ExtQUICTransportParams)
	if !ok {
		t.Fatal("no transport params in rendered CHLO")
	}
	if _, err := quicproto.ParseTransportParameters(ext.Data); err != nil {
		t.Fatal(err)
	}
}

func TestSessionAnatomy(t *testing.T) {
	g := New(3)
	flows, err := g.Session("iOS_nativeApp", fingerprint.Disney, fingerprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(flows) < 2 {
		t.Fatalf("session has %d flows, want >= 2", len(flows))
	}
	if flows[0].SNI != "www.disneyplus.com" {
		t.Errorf("management SNI = %q", flows[0].SNI)
	}
	for _, f := range flows[1:] {
		if !strings.Contains(f.SNI, "dssott.com") {
			t.Errorf("content SNI = %q", f.SNI)
		}
	}
}

func TestLabDatasetComposition(t *testing.T) {
	g := New(4)
	d, err := g.LabDataset(0.05, fingerprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Flows) == 0 {
		t.Fatal("empty dataset")
	}
	// Every non-empty Table 1 cell must be represented.
	type cell struct {
		label string
		prov  fingerprint.Provider
	}
	got := map[cell]int{}
	quicFlows := 0
	for _, f := range d.Flows {
		got[cell{f.Label, f.Provider}]++
		if f.Transport == fingerprint.QUIC {
			quicFlows++
			if f.Provider != fingerprint.YouTube {
				t.Errorf("QUIC flow for %s", f.Provider)
			}
		}
	}
	for label, counts := range Table1Counts {
		for pi, prov := range fingerprint.AllProviders() {
			c := cell{label, prov}
			if counts[pi] == 0 && got[c] > 0 {
				t.Errorf("unsupported cell %s/%s has %d flows", label, prov, got[c])
			}
			if counts[pi] > 0 && got[c] < 8 {
				t.Errorf("cell %s/%s has %d flows, want >= 8", label, prov, got[c])
			}
		}
	}
	if quicFlows == 0 {
		t.Error("no QUIC flows in lab dataset")
	}
	if got := len(d.Labels()); got != 17 {
		t.Errorf("distinct labels = %d, want 17", got)
	}
}

func TestOpenSetDataset(t *testing.T) {
	g := New(5)
	d, err := g.OpenSetDataset(2)
	if err != nil {
		t.Fatal(err)
	}
	// 17 platforms × supported providers, ≥2 flows each.
	if len(d.Flows) < 60 {
		t.Fatalf("open-set flows = %d", len(d.Flows))
	}
	ytQUIC := d.Filter(fingerprint.YouTube, fingerprint.QUIC)
	if len(ytQUIC) != 12*2 {
		t.Errorf("YT QUIC flows = %d, want 24", len(ytQUIC))
	}
}

func TestWritePCAPRoundTrip(t *testing.T) {
	g := New(6)
	ft, err := g.Flow("android_nativeApp", fingerprint.YouTube, fingerprint.QUIC, FlowSpec{
		Start: time.Date(2023, 8, 1, 10, 0, 0, 0, time.UTC)})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := Replay([]*FlowTrace{ft}).WritePCAP(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := pcap.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	var last time.Time
	for {
		pkt, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if pkt.Timestamp.Before(last) {
			t.Error("packets not in timestamp order")
		}
		last = pkt.Timestamp
		n++
	}
	if n != len(ft.Frames) {
		t.Errorf("pcap packets = %d, want %d", n, len(ft.Frames))
	}
}

func TestFlowKeyProto(t *testing.T) {
	g := New(7)
	tcp, err := g.Flow("ps5_nativeApp", fingerprint.Amazon, fingerprint.TCP, FlowSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if tcp.Key().Proto != packet.ProtoTCP {
		t.Error("TCP flow key proto wrong")
	}
	quic, err := g.Flow("windows_chrome", fingerprint.YouTube, fingerprint.QUIC, FlowSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if quic.Key().Proto != packet.ProtoUDP {
		t.Error("QUIC flow key proto wrong")
	}
}

func TestDeterministicGeneration(t *testing.T) {
	a, err := New(42).Flow("macOS_safari", fingerprint.YouTube, fingerprint.TCP, FlowSpec{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(42).Flow("macOS_safari", fingerprint.YouTube, fingerprint.TCP, FlowSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Frames) != len(b.Frames) {
		t.Fatalf("frame counts differ: %d vs %d", len(a.Frames), len(b.Frames))
	}
	for i := range a.Frames {
		if !bytes.Equal(a.Frames[i].Data, b.Frames[i].Data) {
			t.Fatalf("frame %d differs across identical seeds", i)
		}
	}
}

func BenchmarkRenderTCPFlow(b *testing.B) {
	g := New(8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := g.Flow("windows_chrome", fingerprint.Netflix, fingerprint.TCP, FlowSpec{PayloadFrames: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRenderQUICFlow(b *testing.B) {
	g := New(9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := g.Flow("windows_chrome", fingerprint.YouTube, fingerprint.QUIC, FlowSpec{PayloadFrames: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestScenarioDeterminism pins byte-identical regeneration across the
// adversarial scenario families: two generators with the same seed rendering
// the same (label, provider, transport, spec) sequence must agree on every
// frame byte, every offset and all migration ground truth — the contract
// that makes a rendered dataset reproducible from (seed, Options) alone.
func TestScenarioDeterminism(t *testing.T) {
	specs := []struct {
		label string
		prov  fingerprint.Provider
		tr    fingerprint.Transport
		spec  FlowSpec
	}{
		{"windows_chrome", fingerprint.Netflix, fingerprint.TCP,
			FlowSpec{Options: fingerprint.Options{ECH: true}, PayloadFrames: 2}},
		{"android_chrome", fingerprint.YouTube, fingerprint.QUIC,
			FlowSpec{Options: fingerprint.Options{ECH: true}, PayloadFrames: 1}},
		{"android_chrome", fingerprint.YouTube, fingerprint.QUIC,
			FlowSpec{Options: fingerprint.Options{ZeroRTT: true}, PayloadFrames: 2}},
		{"iOS_chrome", fingerprint.YouTube, fingerprint.QUIC,
			FlowSpec{Options: fingerprint.Options{Migration: true}, PayloadFrames: 3}},
		{"macOS_chrome", fingerprint.YouTube, fingerprint.QUIC,
			FlowSpec{Options: fingerprint.Options{Migration: true}, MigrateMidHandshake: true, PayloadFrames: 2}},
		{"android_chrome", fingerprint.YouTube, fingerprint.QUIC,
			FlowSpec{Options: fingerprint.Options{ZeroRTT: true, Migration: true}, PayloadFrames: 1}},
	}
	ga, gb := New(97), New(97)
	for _, sc := range specs {
		a, err := ga.Flow(sc.label, sc.prov, sc.tr, sc.spec)
		if err != nil {
			t.Fatal(err)
		}
		b, err := gb.Flow(sc.label, sc.prov, sc.tr, sc.spec)
		if err != nil {
			t.Fatal(err)
		}
		if a.Key() != b.Key() || a.SNI != b.SNI || a.Migrated != b.Migrated {
			t.Fatalf("%s/%s ground truth diverged across identical seeds", sc.label, sc.prov)
		}
		if a.Migrated && a.MigratedKey() != b.MigratedKey() {
			t.Fatalf("%s/%s migrated tuple diverged", sc.label, sc.prov)
		}
		if len(a.Frames) != len(b.Frames) {
			t.Fatalf("%s/%s frame counts differ: %d vs %d", sc.label, sc.prov, len(a.Frames), len(b.Frames))
		}
		for i := range a.Frames {
			if a.Frames[i].Offset != b.Frames[i].Offset {
				t.Fatalf("%s/%s frame %d offset differs", sc.label, sc.prov, i)
			}
			if !bytes.Equal(a.Frames[i].Data, b.Frames[i].Data) {
				t.Fatalf("%s/%s frame %d differs across identical seeds", sc.label, sc.prov, i)
			}
		}
	}
}

// TestScenarioDatasetDeterminism pins the same contract one level up: a full
// LabDataset rendered twice from the same seed with adversarial Options is
// byte-identical flow for flow.
func TestScenarioDatasetDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("renders two datasets")
	}
	opts := fingerprint.Options{ECH: true}
	da, err := New(98).LabDataset(0.01, opts)
	if err != nil {
		t.Fatal(err)
	}
	db, err := New(98).LabDataset(0.01, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(da.Flows) != len(db.Flows) {
		t.Fatalf("dataset sizes differ: %d vs %d", len(da.Flows), len(db.Flows))
	}
	for i := range da.Flows {
		a, b := da.Flows[i], db.Flows[i]
		if a.Label != b.Label || a.Provider != b.Provider || a.Transport != b.Transport {
			t.Fatalf("flow %d identity diverged", i)
		}
		if len(a.Frames) != len(b.Frames) {
			t.Fatalf("flow %d frame counts differ", i)
		}
		for j := range a.Frames {
			if !bytes.Equal(a.Frames[j].Data, b.Frames[j].Data) {
				t.Fatalf("flow %d frame %d differs across identical seeds", i, j)
			}
		}
	}
}

// pinnedRenders renders a fixed set covering every frame builder: plain TCP
// and QUIC, ECH, 0-RTT, mid-stream and mid-handshake migration, a Session
// and a small LabDataset, all from one generator.
func pinnedRenders(t *testing.T) []*FlowTrace {
	t.Helper()
	g := New(50)
	var flows []*FlowTrace
	for _, sc := range []struct {
		label string
		prov  fingerprint.Provider
		tr    fingerprint.Transport
		spec  FlowSpec
	}{
		{"windows_firefox", fingerprint.Netflix, fingerprint.TCP, FlowSpec{}},
		{"macOS_chrome", fingerprint.YouTube, fingerprint.QUIC, FlowSpec{}},
		{"windows_chrome", fingerprint.Disney, fingerprint.TCP,
			FlowSpec{Options: fingerprint.Options{ECH: true}, PayloadFrames: 2}},
		{"android_chrome", fingerprint.YouTube, fingerprint.QUIC,
			FlowSpec{Options: fingerprint.Options{ECH: true}, PayloadFrames: 1}},
		{"android_chrome", fingerprint.YouTube, fingerprint.QUIC,
			FlowSpec{Options: fingerprint.Options{ZeroRTT: true}, PayloadFrames: 2}},
		{"iOS_chrome", fingerprint.YouTube, fingerprint.QUIC,
			FlowSpec{Options: fingerprint.Options{Migration: true}, PayloadFrames: 3}},
		{"macOS_chrome", fingerprint.YouTube, fingerprint.QUIC,
			FlowSpec{Options: fingerprint.Options{Migration: true}, MigrateMidHandshake: true, PayloadFrames: 2}},
		{"android_chrome", fingerprint.YouTube, fingerprint.QUIC,
			FlowSpec{Options: fingerprint.Options{ZeroRTT: true, Migration: true}, PayloadFrames: 1}},
	} {
		ft, err := g.Flow(sc.label, sc.prov, sc.tr, sc.spec)
		if err != nil {
			t.Fatal(err)
		}
		flows = append(flows, ft)
	}
	sess, err := g.Session("iOS_nativeApp", fingerprint.Amazon, fingerprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	flows = append(flows, sess...)
	d, err := g.LabDataset(0.01, fingerprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return append(flows, d.Flows...)
}

// TestRenderedBytesPinned pins every rendered byte across commits: a change
// to how frames are built must leave this hash, and so every dataset and
// golden downstream of tracegen, as it is.
func TestRenderedBytesPinned(t *testing.T) {
	const want = "2f36fda1ad55110758b9985e4099b27a18a9718d6e7103bd580b34fefa53d39c"
	h := sha256.New()
	var n [8]byte
	frames := 0
	for _, ft := range pinnedRenders(t) {
		for _, fr := range ft.Frames {
			binary.BigEndian.PutUint64(n[:], uint64(fr.Offset))
			h.Write(n[:])
			binary.BigEndian.PutUint64(n[:], uint64(len(fr.Data)))
			h.Write(n[:])
			if fr.ClientToServer {
				h.Write([]byte{1})
			} else {
				h.Write([]byte{0})
			}
			h.Write(fr.Data)
			frames++
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("rendered bytes of %d frames hash to %s, want %s", frames, got, want)
	}
}

// TestFramesOwnTheirBuffers checks that no frame shares bytes with another
// frame, the zero bodies or the option bytes it was built from. It fills
// every frame of one render with a byte of its own, checks that each frame
// still holds only its own byte, and then that a later render from a
// generator in the same state comes out unchanged. The renders are the
// pinned set and the scenario corpus.
func TestFramesOwnTheirBuffers(t *testing.T) {
	frames := func(traces []*FlowTrace) (out [][]byte) {
		for _, ft := range traces {
			for _, fr := range ft.Frames {
				out = append(out, fr.Data)
			}
		}
		return out
	}
	for _, input := range []struct {
		name   string
		render func() []*FlowTrace
	}{
		{"pinned renders", func() []*FlowTrace { return pinnedRenders(t) }},
		{"corpus", Corpus},
	} {
		var want [][]byte
		for _, f := range frames(input.render()) {
			want = append(want, bytes.Clone(f))
		}
		got := frames(input.render())
		fill := func(i int) byte { return byte(i%255 + 1) }
		for i, f := range got {
			for j := range f {
				f[j] = fill(i)
			}
		}
		for i, f := range got {
			for k, b := range f {
				if b != fill(i) {
					t.Fatalf("%s: frame %d byte %d was overwritten through another frame", input.name, i, k)
				}
			}
		}
		for i, f := range frames(input.render()) {
			if !bytes.Equal(f, want[i]) {
				t.Fatalf("%s: frame %d changed after an earlier render's frames were overwritten", input.name, i)
			}
		}
	}
}

// TestRenderAllocCeilings pins the allocations of one rendered flow, each
// frame one buffer (amd64, Go 1.24). Most of what is left is building and
// sealing the ClientHello.
func TestRenderAllocCeilings(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation moves some of a render's values to the heap")
	}
	for _, c := range []struct {
		tr   fingerprint.Transport
		prov fingerprint.Provider
		max  float64
	}{
		{fingerprint.TCP, fingerprint.Netflix, 45},
		{fingerprint.QUIC, fingerprint.YouTube, 67},
	} {
		g := New(8)
		allocs := testing.AllocsPerRun(200, func() {
			if _, err := g.Flow("windows_chrome", c.prov, c.tr, FlowSpec{PayloadFrames: 1}); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%s flow: %.2f allocs per render", c.tr, allocs)
		if allocs > c.max {
			t.Errorf("%s flow: %.1f allocs per render, want at most %v", c.tr, allocs, c.max)
		}
	}
}
