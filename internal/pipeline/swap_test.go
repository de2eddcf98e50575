package pipeline

import (
	"sync"
	"testing"
	"time"

	"videoplat/internal/fingerprint"
	"videoplat/internal/ml"
	"videoplat/internal/packet"
	"videoplat/internal/quicproto"
	"videoplat/internal/tracegen"
)

// TestConcurrentHotSwapUnderLoad hammers SwapBank from two goroutines while
// the sharded pipeline classifies a live packet stream. Run under -race
// (CI does): the swap path must be free of data races, classification must
// never error or observe a torn bank, and every classified flow must be
// attributed to exactly one of the two bank versions — i.e. in-flight
// classifications complete coherently against the bank they loaded.
func TestConcurrentHotSwapUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("bank training is slow")
	}
	bankA, _ := trainSmallBank(t, 31, 0.02)
	bankA.Version = "vA"
	bankB, err := TrainBank(mustLab(t, 32, 0.02), TrainConfig{Forest: ml.ForestConfig{
		NumTrees: 15, MaxDepth: 20, MaxFeatures: 34, Seed: 8}})
	if err != nil {
		t.Fatal(err)
	}
	bankB.Version = "vB"

	s := NewSharded(bankA, 4)

	// Collect results concurrently; every record must carry a coherent
	// version stamp.
	versions := map[string]int{}
	var errRecs int
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for rec := range s.Results() {
			if !rec.Verdict.ClassifierRan() {
				errRecs++
				continue
			}
			versions[rec.ModelVersion]++
		}
	}()

	// Swappers: flip the bank both ways as fast as possible for the whole
	// replay, from two goroutines to also race SwapBank against itself.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			banks := [2]*Bank{bankA, bankB}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				s.SwapBank(banks[(i+g)%2])
			}
		}(g)
	}

	// Load: many interleaved flows across all shards.
	gen := tracegen.New(77)
	sessions := 0
	start := time.Date(2023, 7, 7, 12, 0, 0, 0, time.UTC)
	provs := fingerprint.AllProviders()
	for i := 0; i < 60; i++ {
		label := "windows_chrome"
		prov := provs[i%len(provs)]
		flows, err := gen.Session(label, prov, fingerprint.Options{})
		if err != nil {
			t.Fatal(err)
		}
		sessions++
		for _, ft := range flows {
			base := start.Add(time.Duration(i) * time.Second)
			for _, fr := range ft.Frames {
				s.HandlePacket(base.Add(fr.Offset), fr.Data)
			}
		}
	}

	close(stop)
	wg.Wait()
	s.Close()
	<-collected

	if errRecs > 0 {
		t.Errorf("%d unclassified records delivered", errRecs)
	}
	total := 0
	for v, n := range versions {
		if v != "vA" && v != "vB" {
			t.Errorf("record carries unknown bank version %q (%d records)", v, n)
		}
		total += n
	}
	if total == 0 {
		t.Fatal("no flows classified during the swap storm")
	}
	// (Results delivery is best-effort by contract — drops under a slow
	// consumer are legal — so the coherence checks cover both delivery
	// paths rather than asserting zero drops.)
	// Flow records from the final drain must also be coherently stamped.
	for _, rec := range s.Flows() {
		if rec.Verdict.ClassifierRan() && rec.ModelVersion != "vA" && rec.ModelVersion != "vB" {
			t.Errorf("drained record has version %q", rec.ModelVersion)
		}
	}
}

// TestSwapBankVisibleToSubsequentPackets pins the single-pipeline swap
// contract: the next HandlePacket after SwapBank classifies with the new
// bank.
func TestSwapBankVisibleToSubsequentPackets(t *testing.T) {
	if testing.Short() {
		t.Skip("bank training is slow")
	}
	bankA, _ := trainSmallBank(t, 31, 0.02)
	bankA.Version = "vA"
	bankB, err := TrainBank(mustLab(t, 32, 0.02), TrainConfig{Forest: ml.ForestConfig{
		NumTrees: 15, MaxDepth: 20, MaxFeatures: 34, Seed: 8}})
	if err != nil {
		t.Fatal(err)
	}
	bankB.Version = "vB"

	p := New(bankA)
	if p.Bank() != bankA {
		t.Fatal("Bank() does not return the constructor bank")
	}
	classify := func(seed uint64) string {
		g := tracegen.New(seed)
		ft, err := g.Flow("windows_chrome", fingerprint.Netflix, fingerprint.TCP, tracegen.FlowSpec{PayloadFrames: 1})
		if err != nil {
			t.Fatal(err)
		}
		var got string
		for _, fr := range ft.Frames {
			rec, err := p.HandlePacket(ft.Start.Add(fr.Offset), fr.Data)
			if err != nil {
				t.Fatal(err)
			}
			if rec != nil {
				got = rec.ModelVersion
			}
		}
		return got
	}
	if v := classify(101); v != "vA" {
		t.Fatalf("pre-swap version = %q", v)
	}
	p.SwapBank(bankB)
	if v := classify(102); v != "vB" {
		t.Fatalf("post-swap version = %q", v)
	}
}

// platformBank trains a bank on YouTube flows of one platform only, over
// one transport, so that it names that platform, with full confidence, for
// whatever features it is shown.
func platformBank(t *testing.T, label string, tr fingerprint.Transport, version string) *Bank {
	t.Helper()
	g := tracegen.New(61)
	ds := &tracegen.Dataset{}
	for i := 0; i < 4; i++ {
		ft, err := g.Flow(label, fingerprint.YouTube, tr, tracegen.FlowSpec{})
		if err != nil {
			t.Fatal(err)
		}
		ds.Flows = append(ds.Flows, ft)
	}
	bank, err := TrainBank(ds, TrainConfig{Forest: ml.ForestConfig{
		NumTrees: 5, MaxDepth: 20, MaxFeatures: 34, Seed: 8}})
	if err != nil {
		t.Fatal(err)
	}
	bank.Version = version
	return bank
}

// TestSwapBankDegradedPredictionMatchesVersion pins that a degraded
// classification and the ModelVersion its record carries come from one
// bank. A 0-RTT flow's bank is hot-swapped between its early-data packets
// and the client short header that ends the wait for a hello, and each bank
// knows a different single platform, so they disagree on the flow's partial
// features with full confidence. The record must hold the new bank's
// prediction of those features beside the new bank's version, not a
// prediction the old bank made while the early data arrived.
func TestSwapBankDegradedPredictionMatchesVersion(t *testing.T) {
	bankA := platformBank(t, "android_chrome", fingerprint.QUIC, "vA")
	bankB := platformBank(t, "iOS_safari", fingerprint.QUIC, "vB")
	ft := renderAdversarial(t, 29, "android_chrome", fingerprint.YouTube, fingerprint.QUIC, fingerprint.Options{ZeroRTT: true})

	// The early-data frames, up to the client's first short header, and the
	// partial features they show.
	var (
		partial hsAssembler
		scratch asmScratch
		sum     packet.Summary
	)
	partial.init()
	early := 0
	for ; early < len(ft.Frames); early++ {
		fr := ft.Frames[early]
		if !fr.ClientToServer {
			continue
		}
		if !sum.Decode(fr.Data) || !quicproto.IsLongHeader(fr.Data[sum.PayloadOff:]) {
			break
		}
		partial.consume(&scratch, fr.Data)
	}
	var sc ClassifyScratch
	want, err := bankB.ClassifyHandshake(fingerprint.YouTube, fingerprint.QUIC, &partial.info, &sc)
	if err != nil {
		t.Fatal(err)
	}
	old, err := bankA.ClassifyHandshake(fingerprint.YouTube, fingerprint.QUIC, &partial.info, &sc)
	if err != nil || old.Status == Unknown || want.Status == Unknown || old == want {
		t.Fatalf("the banks must predict the partial features confidently and differently: %+v vs %+v (%v)", old, want, err)
	}

	p := NewWithConfig(bankA, Config{ProviderHint: tracegen.ProviderOfAddr, EarlyMinMargin: -1})
	for i, fr := range ft.Frames {
		if i == early {
			p.SwapBank(bankB)
		}
		p.HandlePacket(ft.Start.Add(fr.Offset), fr.Data)
	}
	recs := p.Flows()
	if len(recs) != 1 || recs[0].Verdict != VerdictClassified {
		t.Fatalf("want one classified flow, got %+v", recs)
	}
	if rec := recs[0]; rec.ModelVersion != "vB" || rec.Prediction != want {
		t.Errorf("record predicts %+v and is stamped %q; bank vB predicts %+v", rec.Prediction, rec.ModelVersion, want)
	}
}

func mustLab(t testing.TB, seed uint64, scale float64) *tracegen.Dataset {
	t.Helper()
	ds, err := tracegen.New(seed).LabDataset(scale, fingerprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}
