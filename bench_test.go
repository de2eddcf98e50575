// Benchmarks regenerating every table and figure of the paper and its four
// ablation studies (BenchmarkExperiments, one sub-benchmark per entry of
// experiments.Catalog), plus BenchmarkSwapUnderLoad, the cost of hot-swapping
// the bank under a packet stream. Throughput and per-layer timings of the serving
// spine are not measured here: bench/ (bash bench/run.sh) is their one
// source.
//
// Run everything with:
//
//	go test -run xxx -bench . -benchmem .
//
// Experiment benches use the quick context (small dataset scale); the
// cmd/vpexperiments tool runs the same code at full scale.
package videoplat_test

import (
	"testing"
	"time"

	"videoplat/internal/experiments"
	"videoplat/internal/fingerprint"
	"videoplat/internal/ml"
	"videoplat/internal/pipeline"
	"videoplat/internal/tracegen"
)

// BenchmarkExperiments regenerates every entry of the experiments catalog —
// each table and figure of the paper, and the four ablations — as one
// sub-benchmark per entry, each iteration on a fresh quick context so
// nothing is served from a previous iteration's caches.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.Catalog {
		b.Run(e.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := e.Run(experiments.QuickContext()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Model hot-swap under load (no bench/ layer measures a swap storm) ---

// trainedBank fits a 15-tree bank on the scale-0.04 lab dataset; at seed 1 it
// is the bank bench/ trains.
func trainedBank(b *testing.B, seed uint64) *pipeline.Bank {
	b.Helper()
	ds, err := tracegen.New(seed).LabDataset(0.04, fingerprint.Options{})
	if err != nil {
		b.Fatal(err)
	}
	bank, err := pipeline.TrainBank(ds, pipeline.TrainConfig{Forest: ml.ForestConfig{
		NumTrees: 15, MaxDepth: 20, MaxFeatures: 34, Seed: seed}})
	if err != nil {
		b.Fatal(err)
	}
	return bank
}

// BenchmarkSwapUnderLoad measures classification throughput while the bank
// is being hot-swapped continuously, against the steady-state baseline —
// quantifying the cost of the registry's zero-downtime swap path (an atomic
// pointer load per packet; a swap storm should not dent packet rate).
func BenchmarkSwapUnderLoad(b *testing.B) {
	bankA, bankB := trainedBank(b, 1), trainedBank(b, 2)

	g := tracegen.New(653)
	var frames []tracegen.Frame
	start := time.Date(2023, 7, 7, 0, 0, 0, 0, time.UTC)
	labels := fingerprint.AllPlatformLabels()
	for i := 0; i < 50; i++ {
		label := labels[i%len(labels)]
		prov := fingerprint.AllProviders()[i%4]
		if !fingerprint.SupportMatrix(label, prov) {
			prov = fingerprint.YouTube
		}
		if !fingerprint.SupportMatrix(label, prov) {
			continue
		}
		tr := fingerprint.TCP
		if !fingerprint.SupportsTCP(label, prov) {
			tr = fingerprint.QUIC
		}
		ft, err := g.Flow(label, prov, tr, tracegen.FlowSpec{Start: start, PayloadFrames: 8})
		if err != nil {
			b.Fatal(err)
		}
		frames = append(frames, ft.Frames...)
	}

	run := func(b *testing.B, swapping bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s := pipeline.NewShardedWithConfig(bankA, 4, pipeline.Config{})
			go func() {
				for range s.Results() {
				}
			}()
			stop := make(chan struct{})
			done := make(chan struct{})
			if swapping {
				go func() {
					defer close(done)
					banks := [2]*pipeline.Bank{bankA, bankB}
					for j := 0; ; j++ {
						select {
						case <-stop:
							return
						default:
						}
						s.SwapBank(banks[j%2])
					}
				}()
			} else {
				close(done)
			}
			for _, fr := range frames {
				s.HandlePacketBatch([]pipeline.IngestPacket{{TS: start, Data: fr.Data}})
			}
			close(stop)
			<-done
			s.Close()
		}
		b.ReportMetric(float64(b.N*len(frames))/b.Elapsed().Seconds(), "pkts/s")
	}
	b.Run("steady", func(b *testing.B) { run(b, false) })
	b.Run("swap-storm", func(b *testing.B) { run(b, true) })
}
