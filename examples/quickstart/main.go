// Quickstart: generate a labeled dataset, train the classifier bank, and
// classify live packets of an unseen video flow — the minimal end-to-end
// use of the implementation packages, imported the way cmd/* import them.
package main

import (
	"fmt"
	"log"

	"videoplat/internal/fingerprint"
	"videoplat/internal/pipeline"
	"videoplat/internal/tracegen"
)

func main() {
	// 1. Render a small labeled training set with the composition of the
	//    paper's Table 1 (5% scale ≈ 600 flows).
	ds, err := tracegen.New(1).LabDataset(0.05, fingerprint.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("training set: %d labeled flows across %d platforms\n",
		len(ds.Flows), len(ds.Labels()))

	// 2. Train the per-provider classifier bank (zero config selects the
	//    paper's tuned hyperparameters).
	bank, err := pipeline.TrainBank(ds, pipeline.TrainConfig{})
	if err != nil {
		log.Fatal(err)
	}

	// 3. Classify packets the bank has never seen: an iPhone streaming
	//    Disney+ through the native app.
	g := tracegen.New(42)
	flow, err := g.Flow("iOS_nativeApp", fingerprint.Disney, fingerprint.TCP, tracegen.FlowSpec{})
	if err != nil {
		log.Fatal(err)
	}
	p := pipeline.New(bank)
	for _, fr := range flow.Frames {
		rec, err := p.HandlePacket(flow.Start.Add(fr.Offset), fr.Data)
		if err != nil {
			log.Fatal(err)
		}
		if rec == nil {
			continue
		}
		fmt.Printf("\nflow to %s (%s over %s)\n", rec.SNI, rec.Provider, rec.Transport)
		switch rec.Prediction.Status {
		case pipeline.Composite:
			fmt.Printf("  platform: %s (confidence %.0f%%)\n",
				rec.Prediction.Platform, rec.Prediction.PlatformConf*100)
		case pipeline.Partial:
			fmt.Printf("  partial: device=%q agent=%q\n",
				rec.Prediction.Device, rec.Prediction.Agent)
		default:
			fmt.Println("  platform: unknown (low confidence)")
		}
		fmt.Printf("  ground truth: %s\n", flow.Label)
	}

	// 4. The same bank handles QUIC: a Chrome-on-Windows YouTube flow.
	quicFlow, err := g.Flow("windows_chrome", fingerprint.YouTube, fingerprint.QUIC, tracegen.FlowSpec{})
	if err != nil {
		log.Fatal(err)
	}
	for _, fr := range quicFlow.Frames {
		rec, err := p.HandlePacket(quicFlow.Start.Add(fr.Offset), fr.Data)
		if err != nil {
			log.Fatal(err)
		}
		if rec != nil {
			fmt.Printf("\nQUIC flow to %s\n  platform: %s (%.0f%%), truth: %s\n",
				rec.SNI, rec.Prediction.Platform, rec.Prediction.PlatformConf*100, quicFlow.Label)
		}
	}

	fmt.Println("\nsupported platforms:", fingerprint.AllPlatformLabels())
}
