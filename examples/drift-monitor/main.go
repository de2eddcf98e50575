// Concept-drift monitoring (the paper's §5.3 deployment consideration):
// classifiers decay as platforms update. This example trains a bank on lab
// traffic, streams first current and then version-drifted (open-set) flows
// through it, and shows the drift monitor flagging the classifiers whose
// confidence distribution has shifted — the signal to collect fresh
// ground truth and retrain.
package main

import (
	"fmt"
	"log"

	"videoplat/internal/drift"
	"videoplat/internal/features"
	"videoplat/internal/fingerprint"
	"videoplat/internal/pipeline"
	"videoplat/internal/tracegen"
)

func main() {
	lab, err := tracegen.New(9).LabDataset(0.05, fingerprint.Options{})
	if err != nil {
		log.Fatal(err)
	}
	bank, err := pipeline.TrainBank(lab, pipeline.TrainConfig{})
	if err != nil {
		log.Fatal(err)
	}

	mon := drift.NewMonitor(drift.Config{Window: 120, Baseline: 120, ConfidenceDrop: 0.05})

	classify := func(ds *tracegen.Dataset, phase string) {
		for _, ft := range ds.Flows {
			info, err := pipeline.ExtractTrace(ft)
			if err != nil {
				log.Fatal(err)
			}
			pred, err := bank.Classify(ft.Provider, ft.Transport, features.Extract(info))
			if err != nil {
				log.Fatal(err)
			}
			mon.Observe(&pipeline.FlowRecord{Classified: true,
				Provider: ft.Provider, Transport: ft.Transport, Prediction: pred})
		}
		fmt.Printf("\nafter %s:\n", phase)
		for _, st := range mon.Statuses() {
			flag := "healthy"
			if st.Drifting {
				flag = "RETRAIN"
			}
			fmt.Printf("  %-8s %-5s  baseline=%.0f%% recent=%.0f%% unknown=%.0f%%  [%s] %s\n",
				st.Provider, st.Transport, st.BaselineMedian*100, st.RecentMedian*100,
				st.UnknownRate*100, flag, st.Reason)
		}
	}

	// Phase 1: in-distribution traffic establishes the baseline.
	current, err := tracegen.New(101).LabDataset(0.04, fingerprint.Options{})
	if err != nil {
		log.Fatal(err)
	}
	classify(current, "phase 1 (current traffic)")

	// Phase 2: the fleet updates — open-set profiles drift the handshakes.
	drifted, err := tracegen.New(102).OpenSetDataset(8)
	if err != nil {
		log.Fatal(err)
	}
	classify(drifted, "phase 2 (after platform updates)")

	need := mon.NeedsRetraining()
	fmt.Printf("\nclassifiers flagged for retraining: %d\n", len(need))
	fmt.Println("(the paper's remedy: collect fresh ground truth for the flagged")
	fmt.Println(" provider and retrain that provider's three models only)")
}
