package drift

import (
	"testing"

	"videoplat/internal/fingerprint"
	"videoplat/internal/ml"
	"videoplat/internal/pipeline"
	"videoplat/internal/tracegen"
)

type dataset struct{ flows []*tracegen.FlowTrace }

type gen struct {
	bank   *pipeline.Bank
	closed dataset
	open   dataset
}

func newGen(t testing.TB) *gen {
	t.Helper()
	g := tracegen.New(21)
	lab, err := g.LabDataset(0.03, fingerprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bank, err := pipeline.TrainBank(lab, pipeline.TrainConfig{Forest: ml.ForestConfig{
		NumTrees: 12, MaxDepth: 20, MaxFeatures: 34, Seed: 9}})
	if err != nil {
		t.Fatal(err)
	}
	closed, err := tracegen.New(22).LabDataset(0.02, fingerprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	open, err := tracegen.New(23).OpenSetDataset(3)
	if err != nil {
		t.Fatal(err)
	}
	return &gen{bank: bank, closed: dataset{closed.Flows}, open: dataset{open.Flows}}
}
