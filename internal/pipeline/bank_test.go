package pipeline

import (
	"testing"

	"videoplat/internal/fingerprint"
	"videoplat/internal/ml"
	"videoplat/internal/tracegen"
)

// BenchmarkTrainBank fits the benchmark's bank: LabDataset(0.04), 15 trees
// of depth 20 with 34 candidate features per split. It is the training part
// of the benchmark's setup_s and of a daemon's self-train.
func BenchmarkTrainBank(b *testing.B) {
	ds, err := tracegen.New(1).LabDataset(0.04, fingerprint.Options{})
	if err != nil {
		b.Fatal(err)
	}
	cfg := TrainConfig{Forest: ml.ForestConfig{NumTrees: 15, MaxDepth: 20, MaxFeatures: 34, Seed: 1}}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := TrainBank(ds, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
