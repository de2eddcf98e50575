package videoplat_test

import (
	"testing"

	"videoplat/internal/fingerprint"
	"videoplat/internal/flowtable"
	"videoplat/internal/ml"
	"videoplat/internal/pipeline"
	"videoplat/internal/tracegen"
)

// The three tests keep the names they had when they went through the deleted
// root facade, so the suite's test list is unchanged by its removal.

func TestFacadeEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a bank")
	}
	ds, err := tracegen.New(1).LabDataset(0.03, fingerprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Flows) == 0 {
		t.Fatal("empty dataset")
	}
	bank, err := pipeline.TrainBank(ds, pipeline.TrainConfig{
		Forest: ml.ForestConfig{NumTrees: 10, MaxDepth: 15, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}

	g := tracegen.New(1234)
	ft, err := g.Flow("windows_firefox", fingerprint.Netflix, fingerprint.TCP, tracegen.FlowSpec{})
	if err != nil {
		t.Fatal(err)
	}
	var recs []*pipeline.FlowRecord
	p := pipeline.NewWithConfig(bank, pipeline.Config{
		OnEvict: func(rec *pipeline.FlowRecord, _ flowtable.Reason) { recs = append(recs, rec) },
	})
	for _, fr := range ft.Frames {
		p.HandlePacket(ft.Start.Add(fr.Offset), fr.Data)
	}
	p.Drain()
	if len(recs) != 1 {
		t.Fatalf("%d records out of the pipeline, want 1", len(recs))
	}
	got := recs[0]
	if !got.Verdict.ClassifierRan() {
		t.Fatalf("flow left as %s, never classified", got.Verdict)
	}
	if got.Provider != fingerprint.Netflix {
		t.Errorf("provider = %v", got.Provider)
	}
	if got.Prediction.Status == pipeline.Composite && got.Prediction.Platform != "windows_firefox" {
		t.Errorf("platform = %q", got.Prediction.Platform)
	}
}

func TestFacadePlatforms(t *testing.T) {
	if got := len(fingerprint.AllPlatformLabels()); got != 17 {
		t.Errorf("platforms = %d, want 17", got)
	}
}

func TestFacadeOpenSet(t *testing.T) {
	ds, err := tracegen.New(2).OpenSetDataset(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Flows) < 40 {
		t.Errorf("open-set flows = %d", len(ds.Flows))
	}
}
