// Drift-triggered retraining with zero-downtime hot-swap — the paper's
// §4.3.3/§5.3 continuous-deployment loop, end to end:
//
//  1. an initial bank is trained on lab traffic and promoted as v0001 in a
//     versioned model registry;
//  2. the daemon classifies live synthetic traffic; after 100 sessions the
//     "fleet updates" (tracegen renders flows with the open-set profile
//     perturbation), so v0001's confidence decays;
//  3. the drift monitor flags the decaying classifiers — the example prints
//     every classifier's baseline vs recent confidence at that moment — and
//     triggers the retrainer, which trains a replacement on fresh ground
//     truth (lab + drifted profiles) off the hot path;
//  4. the candidate shadow-classifies a sample of live flows alongside
//     v0001 and is promoted only when it clears the gate — an atomic bank
//     swap that never pauses classification.
//
// Run it:
//
//	go run ./examples/drift-retrain
//
// The same loop is available in the daemon binary:
//
//	vpserve -registry-dir ./models -auto-retrain -synth 600 \
//	        -synth-drift-after 100 -rate 800 -drift-window 40 -drift-drop 0.05
package main

import (
	"context"
	"fmt"
	"log"
	"os"

	"videoplat/internal/drift"
	"videoplat/internal/fingerprint"
	"videoplat/internal/ml"
	"videoplat/internal/pipeline"
	"videoplat/internal/registry"
	"videoplat/internal/server"
	"videoplat/internal/tracegen"
)

func main() {
	dir, err := os.MkdirTemp("", "drift-retrain-registry-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 1. Initial model: train on current lab traffic, promote as v0001.
	reg, err := registry.New(registry.Config{Dir: dir})
	if err != nil {
		log.Fatal(err)
	}
	lab, err := tracegen.New(1).LabDataset(0.03, fingerprint.Options{})
	if err != nil {
		log.Fatal(err)
	}
	initial, err := pipeline.TrainBank(lab, pipeline.TrainConfig{Forest: ml.ForestConfig{
		NumTrees: 15, MaxDepth: 20, MaxFeatures: 34, Seed: 1}})
	if err != nil {
		log.Fatal(err)
	}
	m0, err := reg.Add(initial, "initial", 1)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := reg.Promote(m0.ID); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("registry %s: promoted %s (initial bank)\n", dir, m0.ID)

	reg.OnSwap(func(v *registry.Version) {
		fmt.Printf(">>> hot-swap: now serving %s (%s)\n", v.Manifest.ID, v.Manifest.Reason)
	})

	// 2-4. Drift monitor + retrainer, wired through the daemon. The train
	// func models "collect fresh ground truth from the updated fleet":
	// current lab profiles plus the open-set (drifted) ones.
	mon := drift.NewMonitor(drift.Config{
		Window: 40, ConfidenceDrop: 0.05})
	rt, err := registry.NewRetrainer(reg, registry.RetrainerConfig{
		Train: func(reason string, seed uint64) (*pipeline.Bank, error) {
			fmt.Printf("retraining (%s)...\n", reason)
			ds, err := tracegen.New(seed).LabDataset(0.03, fingerprint.Options{})
			if err != nil {
				return nil, err
			}
			drifted, err := tracegen.New(seed^0xd81f7).LabDataset(0.03, fingerprint.Options{OpenSet: true})
			if err != nil {
				return nil, err
			}
			ds.Flows = append(ds.Flows, drifted.Flows...)
			return pipeline.TrainBank(ds, pipeline.TrainConfig{Forest: ml.ForestConfig{
				NumTrees: 15, MaxDepth: 20, MaxFeatures: 34, Seed: seed}})
		},
		Gate: registry.Gate{SampleRate: 1, MinFlows: 30, MinAgreement: 0.1},
		Seed: 1000,
	})
	if err != nil {
		log.Fatal(err)
	}
	// Subscribers run in registration order, so the monitor's view is printed
	// before the retrainer (bound next) is triggered by the same transition.
	mon.Subscribe(func(drift.Status) {
		fmt.Println("drift monitor flagged a classifier:")
		for _, st := range mon.Statuses() {
			flag := "healthy"
			if st.Drifting {
				flag = "RETRAIN"
			}
			fmt.Printf("  %-8s %-5s  baseline=%.0f%% recent=%.0f%% unknown=%.0f%%  [%s] %s\n",
				st.Provider, st.Transport, st.BaselineMedian*100, st.RecentMedian*100,
				st.UnknownRate*100, flag, st.Reason)
		}
	})
	rt.BindMonitor(mon)

	// Live traffic: 600 sessions paced at 800 packets/sec, with the fleet
	// update (open-set perturbation) injected after session 100. Pacing
	// matters: it leaves the retrainer wall-clock time to train and
	// shadow-evaluate while traffic still flows.
	srv, err := server.New(reg.Current().Bank,
		server.NewDriftingSynthSource(7, 600, 100),
		server.Config{
			Addr: "127.0.0.1:0", Rate: 800,
			Registry: reg, Drift: mon, Retrainer: rt,
		})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("daemon on http://%s — watch /models and /stats while it runs\n", srv.Addr())

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		<-srv.ReplayDone()
		cancel()
	}()
	if err := srv.Run(ctx); err != nil {
		log.Fatal(err)
	}

	// The version history: every candidate, its drift reason, and the
	// shadow metrics that admitted or rejected it.
	fmt.Println("\nmodel version history:")
	for _, m := range reg.List() {
		fmt.Printf("  %s  %-9s  %s\n", m.ID, m.State, m.Reason)
		if m.Shadow != nil {
			fmt.Printf("      shadow: %d flows, conf %.2f vs %.2f, unknown %.2f vs %.2f, agreement %.2f -> %s\n",
				m.Shadow.Flows, m.Shadow.CandidateMeanConf, m.Shadow.ActiveMeanConf,
				m.Shadow.CandidateUnknownRate, m.Shadow.ActiveUnknownRate,
				m.Shadow.Agreement, m.Shadow.Reason)
		}
	}
	st := srv.Snapshot()
	fmt.Printf("\nserved %d packets, %d classified flows, %d hot-swap(s); active model: %s\n",
		st.Replay.Packets, st.FlowVerdicts["classified"], st.Models.Swaps, st.Models.ActiveVersion)
	if st.Models.Swaps == 0 {
		fmt.Println("(no swap this run — raise -synth or lower the drift thresholds)")
	}
}
