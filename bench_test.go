// Benchmarks regenerating every table and figure of the paper and its four
// ablation studies (one bench per experiment, reporting the headline
// metric), plus BenchmarkSwapUnderLoad, the cost of hot-swapping the bank
// under a packet stream. Throughput and per-layer timings of the serving
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

func quick() *experiments.Context { return experiments.QuickContext() }

func reportMetric(b *testing.B, r *experiments.Report, key, unit string) {
	b.Helper()
	if v, ok := r.Metrics[key]; ok {
		b.ReportMetric(v, unit)
	}
}

// --- One benchmark per paper table/figure ---

func BenchmarkTable1Dataset(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table1(quick())
		if err != nil {
			b.Fatal(err)
		}
		reportMetric(b, r, "total_flows", "flows")
	}
}

func BenchmarkFig3FieldDiversity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig3(quick())
		if err != nil {
			b.Fatal(err)
		}
		reportMetric(b, r, "constant_fields", "constant-fields")
	}
}

func BenchmarkFig5InfoGain(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := experiments.Fig5(quick())
		if err != nil {
			b.Fatal(err)
		}
		reportMetric(b, rs[0], "high_all", "high-importance-attrs")
	}
}

func BenchmarkFig6aGridSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6a(quick())
		if err != nil {
			b.Fatal(err)
		}
		reportMetric(b, r, "best_accuracy", "accuracy")
	}
}

func BenchmarkFig6bcdConfusion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rs, err := experiments.Fig6bcd(quick())
		if err != nil {
			b.Fatal(err)
		}
		reportMetric(b, rs[0], "accuracy", "accuracy")
	}
}

func BenchmarkAlgoComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AlgoComparison(quick())
		if err != nil {
			b.Fatal(err)
		}
		reportMetric(b, r, "random forest", "rf-accuracy")
	}
}

func BenchmarkTable3OpenSet(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table3(quick())
		if err != nil {
			b.Fatal(err)
		}
		reportMetric(b, r, "YT (QUIC)/user platform", "yt-quic-accuracy")
	}
}

func BenchmarkTable4Confidence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table4(quick())
		if err != nil {
			b.Fatal(err)
		}
		reportMetric(b, r, "YT (QUIC)/user platform/correct", "median-correct-conf")
	}
}

func BenchmarkTable5Subsets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table5(quick())
		if err != nil {
			b.Fatal(err)
		}
		reportMetric(b, r, "full attribute set/platform", "full-set-accuracy")
	}
}

func BenchmarkTable6Baselines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table6(quick())
		if err != nil {
			b.Fatal(err)
		}
		reportMetric(b, r, "Ours/YT (QUIC)", "ours-yt-quic")
	}
}

func BenchmarkFig7WatchTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7(quick())
		if err != nil {
			b.Fatal(err)
		}
		reportMetric(b, r, "youtube/total_hours_per_day", "yt-hours-per-day")
	}
}

func BenchmarkFig8AgentWatchTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(quick()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9Bandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(quick())
		if err != nil {
			b.Fatal(err)
		}
		reportMetric(b, r, "amazon/macOS/median", "ap-mac-median-mbps")
	}
}

func BenchmarkFig10AgentBandwidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10(quick()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11Temporal(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig11(quick())
		if err != nil {
			b.Fatal(err)
		}
		reportMetric(b, r, "netflix/peak_hour", "nf-peak-hour")
	}
}

func BenchmarkFig12Heatmaps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig12(quick()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig13Diversity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig13(quick()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14Importance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig14(quick()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ---

func BenchmarkAblationListEncoding(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationListEncoding(quick())
		if err != nil {
			b.Fatal(err)
		}
		reportMetric(b, r, "positional", "positional-accuracy")
	}
}

func BenchmarkAblationGrease(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationGrease(quick())
		if err != nil {
			b.Fatal(err)
		}
		reportMetric(b, r, "normalized", "normalized-accuracy")
	}
}

func BenchmarkAblationConfidenceSelector(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationConfidenceSelector(quick())
		if err != nil {
			b.Fatal(err)
		}
		reportMetric(b, r, "composite_rate", "composite-rate")
	}
}

func BenchmarkAblationGlobalClassifier(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationGlobalClassifier(quick())
		if err != nil {
			b.Fatal(err)
		}
		reportMetric(b, r, "global", "global-accuracy")
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
			s := pipeline.NewSharded(bankA, 4)
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
				s.HandlePacket(start, fr.Data)
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
