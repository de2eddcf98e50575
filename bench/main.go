// Command bench is the repository's benchmark: four seeded workloads
// through the serving spine, every output checked against a single-pipeline
// reference, end-to-end metrics with tracing off and per-layer metrics from
// a traced run. See README.md.
//
//	bash bench/run.sh                      all four workloads, both runs each, one result set
//	bash bench/run.sh -quick               tiny sizes, oracle only, a few seconds
//	bash bench/run.sh -compare A B         deltas between two result sets against the bounds
//	bash bench/run.sh --workload churn --seed 13 --seconds 15 --trace 0    one run, as the driver makes it
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "run one workload (churn, stream, adversarial, daemon) and print its driver line")
		seed     = flag.Uint64("seed", 13, "workload rendering seed; the program under test sees only the rendered frames")
		seconds  = flag.Float64("seconds", runSeconds, "seconds one run measures; the frozen pass counts scale with it")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
		quick    = flag.Bool("quick", false, "tiny sizes, oracle only: the smoke entry")
		compare  = flag.Bool("compare", false, "compare two result sets: -compare A.json B.json")
		outDir   = flag.String("outdir", filepath.Join("bench", "out"), "where trace files and the result set (BENCH.json) go")
	)
	flag.Parse()
	// Fixed harness setting: two cores' worth of scheduler, whatever the host has.
	runtime.GOMAXPROCS(2)

	var err error
	switch {
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result set files")
			break
		}
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *quick:
		err = runQuick(*seed)
	case *workload != "":
		err = runOne(*workload, *seed, *seconds, *trace, *outDir)
	default:
		err = runAll(*seed, *seconds, *outDir)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// errIncorrect marks a run whose outputs did not match the reference.
var errIncorrect = errors.New("outputs differ from the reference")

// runOne is the driver's entry: one workload, one kind of run, the result
// as the last line of standard output.
func runOne(name string, seed uint64, seconds float64, trace int, outDir string) error {
	var res *result
	var err error
	defs := endToEnd
	if trace == 0 {
		res, err = endToEndRun(name, seed, seconds, fullSizes, setupRounds)
	} else {
		defs = perLayer
		res, err = perLayerRun(name, seed, seconds, fullSizes, outDir)
	}
	if err != nil {
		return err
	}
	res.Metrics.fill(defs)
	fmt.Printf("%s seed %d trace %d frames %s: %d passes per repetition\n", name, seed, trace, res.FramesHash[:16], passesFor(name, seconds, fullSizes))
	if trace == 0 {
		printMetrics(os.Stdout, res, append(append([]metricDef{}, gated...), hostDefs...))
	} else {
		printMetrics(os.Stdout, res, defs)
	}
	fmt.Printf("%s\n", driverLine(res, defs))
	if !res.Correct {
		return errIncorrect
	}
	return nil
}

// runAll is the one command: every workload, tracing off then traced, every
// metric printed, the result set written.
func runAll(seed uint64, seconds float64, outDir string) error {
	t0 := time.Now()
	out := filepath.Join(outDir, "BENCH.json")
	rs := newResultSet(seed, seconds, fullSizes)
	ok := true
	for _, wd := range workloads {
		plain, err := endToEndRun(wd.Name, seed, seconds, fullSizes, setupRounds)
		if err != nil {
			return err
		}
		traced, err := perLayerRun(wd.Name, seed, seconds, fullSizes, outDir)
		if err != nil {
			return err
		}
		traced.Metrics.fill(perLayer)
		fmt.Printf("== %s (seed %d, frames %s): %s\n", wd.Name, seed, plain.FramesHash[:16], wd.Why)
		fmt.Println(" end to end, tracing off:")
		printMetrics(os.Stdout, plain, append(append([]metricDef{}, gated...), hostDefs...))
		fmt.Println(" per layer, traced run:")
		printMetrics(os.Stdout, traced, layers)
		rs.Workloads[wd.Name] = workloadResult{EndToEnd: plain, PerLayer: traced}
		ok = ok && plain.Correct && traced.Correct
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if err := rs.write(out); err != nil {
		return err
	}
	fmt.Printf("wrote %s in %.0f s\n", out, time.Since(t0).Seconds())
	if !ok {
		return errIncorrect
	}
	return nil
}

// runQuick checks the oracle on every workload at tiny sizes.
func runQuick(seed uint64) error {
	ok := true
	for _, wd := range workloads {
		res, err := endToEndRun(wd.Name, seed, 0.25, quickSizes, 1)
		if err != nil {
			return err
		}
		status := "ok"
		if !res.Correct {
			status, ok = "FAILED", false
		}
		fmt.Printf("%-12s %s: %d operations, %d failed\n", wd.Name, status, res.Attempted, res.Failed)
		for _, p := range res.Problems {
			fmt.Println("  ", p)
		}
	}
	if !ok {
		return errIncorrect
	}
	return nil
}
