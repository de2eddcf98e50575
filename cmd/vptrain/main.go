// Command vptrain renders the lab training dataset and trains the
// per-provider classifier bank on it, writing the serialized models for
// cmd/vpclassify.
//
// Usage:
//
//	vptrain -scale 0.3 -out bank.gob
package main

import (
	"flag"
	"fmt"
	"os"

	"videoplat/internal/fingerprint"
	"videoplat/internal/ml"
	"videoplat/internal/pipeline"
	"videoplat/internal/tracegen"
)

func main() {
	var (
		scale = flag.Float64("scale", 0.3, "lab dataset scale in (0,1]")
		seed  = flag.Uint64("seed", 1, "deterministic seed")
		trees = flag.Int("trees", 40, "random forest size")
		depth = flag.Int("depth", 20, "maximum tree depth")
		attrs = flag.Int("attrs", 34, "candidate attributes per split")
		out   = flag.String("out", "bank.gob", "output model file")
	)
	flag.Parse()

	fmt.Fprintf(os.Stderr, "rendering lab dataset (scale %.2f)...\n", *scale)
	ds, err := tracegen.New(*seed).LabDataset(*scale, fingerprint.Options{})
	exitOn(err)
	fmt.Fprintf(os.Stderr, "rendered %d flows; training bank...\n", len(ds.Flows))

	bank, err := pipeline.TrainBank(ds, pipeline.TrainConfig{Forest: ml.ForestConfig{
		NumTrees: *trees, MaxDepth: *depth, MaxFeatures: *attrs, Seed: *seed}})
	exitOn(err)

	blob, err := bank.MarshalBinary()
	exitOn(err)
	exitOn(os.WriteFile(*out, blob, 0o644))
	fmt.Fprintf(os.Stderr, "wrote %s (%d bytes)\n", *out, len(blob))
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "vptrain:", err)
		os.Exit(1)
	}
}
