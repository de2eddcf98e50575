// Quickstart: generate a labeled dataset, train the classifier bank, and
// classify live packets of an unseen video flow — the minimal end-to-end
// use of the implementation packages, imported the way cmd/* import them.
package main

import (
	"fmt"
	"log"

	"videoplat/internal/fingerprint"
	"videoplat/internal/flowtable"
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
	//    Disney+ through the native app, and a Chrome-on-Windows YouTube
	//    flow over QUIC. Each flow's finalized record comes out of OnEvict
	//    once, when it leaves the table; Drain empties the table at the end.
	g := tracegen.New(42)
	disney, err := g.Flow("iOS_nativeApp", fingerprint.Disney, fingerprint.TCP, tracegen.FlowSpec{})
	if err != nil {
		log.Fatal(err)
	}
	youtube, err := g.Flow("windows_chrome", fingerprint.YouTube, fingerprint.QUIC, tracegen.FlowSpec{})
	if err != nil {
		log.Fatal(err)
	}
	truth := map[string]string{disney.SNI: disney.Label, youtube.SNI: youtube.Label}
	p := pipeline.NewWithConfig(bank, pipeline.Config{
		OnEvict: func(rec *pipeline.FlowRecord, _ flowtable.Reason) {
			fmt.Printf("\nflow to %s (%s over %s): %s\n", rec.SNI, rec.Provider, rec.Transport, rec.Verdict)
			switch rec.Prediction.Status {
			case pipeline.Composite:
				fmt.Printf("  platform: %s (confidence %.0f%%)\n",
					rec.Prediction.Platform, rec.Prediction.PlatformConf*100)
			case pipeline.Partial:
				fmt.Printf("  partial: device=%q agent=%q\n",
					rec.Prediction.Device, rec.Prediction.Agent)
			default:
				fmt.Println("  platform: unknown")
			}
			fmt.Printf("  ground truth: %s\n", truth[rec.SNI])
		},
	})
	for _, flow := range []*tracegen.FlowTrace{disney, youtube} {
		for _, fr := range flow.Frames {
			p.HandlePacket(flow.Start.Add(fr.Offset), fr.Data)
		}
	}
	p.Drain()

	fmt.Println("\nsupported platforms:", fingerprint.AllPlatformLabels())
}
