package baselines

import (
	"math/rand/v2"
	"strings"
	"testing"

	"videoplat/internal/features"
	"videoplat/internal/fingerprint"
	"videoplat/internal/ml"
	"videoplat/internal/pipeline"
	"videoplat/internal/tlsproto"
	"videoplat/internal/tracegen"
)

func genValues(t testing.TB, labels []string, prov fingerprint.Provider,
	tr fingerprint.Transport, n int, seed uint64) ([]*features.FieldValues, []string) {
	t.Helper()
	g := tracegen.New(seed)
	var values []*features.FieldValues
	var y []string
	for _, label := range labels {
		for i := 0; i < n; i++ {
			ft, err := g.Flow(label, prov, tr, tracegen.FlowSpec{PayloadFrames: 1})
			if err != nil {
				t.Fatal(err)
			}
			info, err := pipeline.ExtractTrace(ft)
			if err != nil {
				t.Fatal(err)
			}
			values = append(values, features.Extract(info))
			y = append(y, label)
		}
	}
	return values, y
}

func TestAllSixTechniques(t *testing.T) {
	ts := All()
	if len(ts) != 6 {
		t.Fatalf("techniques = %d, want 6", len(ts))
	}
	adaptable := 0
	for _, tech := range ts {
		if tech.Adaptable {
			adaptable++
		} else if _, err := tech.Build(nil, false); err == nil {
			t.Errorf("%s: Build should fail for non-adaptable", tech.Name)
		}
	}
	if adaptable != 4 {
		t.Errorf("adaptable = %d, want 4 (Table 6 shows two dashes)", adaptable)
	}
}

func TestAdaptableTechniquesTrainAndClassify(t *testing.T) {
	labels := []string{"windows_chrome", "windows_firefox", "macOS_safari", "ps5_nativeApp"}
	values, y := genValues(t, labels, fingerprint.Amazon, fingerprint.TCP, 25, 1)
	for _, tech := range All() {
		if !tech.Adaptable {
			continue
		}
		enc, err := tech.Build(values, false)
		if err != nil {
			t.Fatalf("%s: %v", tech.Name, err)
		}
		x := make([][]float64, len(values))
		for i, v := range values {
			x[i] = enc.Transform(v)
			if len(x[i]) != enc.Width() {
				t.Fatalf("%s: width mismatch", tech.Name)
			}
		}
		d, err := ml.NewDataset(x, y)
		if err != nil {
			t.Fatal(err)
		}
		res := ml.CrossValidate(func() ml.Classifier {
			return &ml.RandomForest{Config: ml.ForestConfig{NumTrees: 10, MaxDepth: 12, Seed: 2}}
		}, d, 5, 3)
		// These four platforms differ strongly at the TCP/TLS level; every
		// adaptable technique should beat random (0.25) comfortably.
		if res.Accuracy < 0.5 {
			t.Errorf("%s: accuracy = %.3f", tech.Name, res.Accuracy)
		}
	}
}

func TestRenCollapsesOnQUIC(t *testing.T) {
	// [53] keeps only init_packet_size over QUIC; its accuracy on QUIC
	// platforms with similar initial sizes must be far below a richer
	// technique's, reproducing Table 6's 11.3% vs 90%+ gap in shape.
	labels := []string{"windows_chrome", "windows_firefox", "macOS_safari",
		"android_nativeApp", "iOS_nativeApp"}
	values, y := genValues(t, labels, fingerprint.YouTube, fingerprint.QUIC, 20, 4)

	evalTech := func(ref string) float64 {
		var tech *Technique
		for _, cand := range All() {
			if cand.Ref == ref {
				tech = cand
			}
		}
		enc, err := tech.Build(values, true)
		if err != nil {
			t.Fatal(err)
		}
		x := make([][]float64, len(values))
		for i, v := range values {
			x[i] = enc.Transform(v)
		}
		d, _ := ml.NewDataset(x, y)
		res := ml.CrossValidate(func() ml.Classifier {
			return &ml.RandomForest{Config: ml.ForestConfig{NumTrees: 10, MaxDepth: 12, Seed: 5}}
		}, d, 5, 6)
		return res.Accuracy
	}
	ren := evalTech("[53]")
	anderson := evalTech("[6]")
	if ren >= anderson {
		t.Errorf("[53] (%.3f) should collapse below [6] (%.3f) on QUIC", ren, anderson)
	}
	if ren > 0.7 {
		t.Errorf("[53] QUIC accuracy = %.3f, expected to collapse", ren)
	}
}

func TestJA3(t *testing.T) {
	ch := &tlsproto.ClientHello{
		LegacyVersion:      tlsproto.VersionTLS12,
		CipherSuites:       []uint16{0x0a0a, 0x1301, 0xc02b}, // leading GREASE
		CompressionMethods: []byte{0},
		Extensions: []tlsproto.Extension{
			{Type: tlsproto.ExtServerName, Data: tlsproto.ServerNameData("example.com")},
			{Type: tlsproto.ExtSupportedGroups, Data: tlsproto.Uint16ListData([]uint16{0x2a2a, 0x001d, 0x0017})},
			{Type: tlsproto.ExtECPointFormats, Data: tlsproto.ECPointFormatsData([]byte{0})},
		},
	}
	s, digest := JA3(ch)
	want := "771,4865-49195,0-10-11,29-23,0"
	if s != want {
		t.Errorf("JA3 = %q, want %q", s, want)
	}
	if len(digest) != 32 {
		t.Errorf("digest = %q", digest)
	}
	if strings.Contains(s, "2570") { // 0x0a0a must be stripped
		t.Error("GREASE leaked into JA3")
	}
}

func TestJA3StableAcrossGreaseDraws(t *testing.T) {
	// Two Chromium flows differing only in GREASE draw and extension order
	// have different JA3 (order matters) but GREASE never appears.
	rng := rand.New(rand.NewPCG(7, 7))
	for i := 0; i < 5; i++ {
		f, err := fingerprint.Generate(rng, "windows_chrome", fingerprint.Netflix, fingerprint.TCP, fingerprint.Options{})
		if err != nil {
			t.Fatal(err)
		}
		s, _ := JA3(f.Hello)
		for _, g := range []string{"2570", "6682", "10794", "19018", "31354", "39578", "47802", "64250"} {
			for _, part := range strings.Split(s, ",") {
				for _, item := range strings.Split(part, "-") {
					if item == g {
						t.Fatalf("GREASE value %s in JA3 %q", g, s)
					}
				}
			}
		}
	}
}
