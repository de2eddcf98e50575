// Command vpexperiments regenerates the tables and figures of the paper's
// evaluation on the synthetic substrate.
//
// Usage:
//
//	vpexperiments [flags] <experiment>...
//	vpexperiments -scale 0.3 all
//
// Run it with no arguments to list the experiments (experiments.Catalog).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"videoplat/internal/experiments"
)

func main() {
	ctx := experiments.DefaultContext()
	flag.Float64Var(&ctx.Scale, "scale", ctx.Scale, "lab dataset scale in (0,1]; 1.0 = full Table 1")
	flag.Uint64Var(&ctx.Seed, "seed", ctx.Seed, "deterministic seed")
	flag.IntVar(&ctx.Trees, "trees", ctx.Trees, "random forest size")
	flag.IntVar(&ctx.Folds, "folds", ctx.Folds, "cross-validation folds")
	flag.IntVar(&ctx.OpenSetPerCombo, "openset", ctx.OpenSetPerCombo, "open-set flows per combination")
	flag.IntVar(&ctx.CampusDays, "days", ctx.CampusDays, "campus simulation days")
	flag.IntVar(&ctx.CampusSessionsPerDay, "sessions", ctx.CampusSessionsPerDay, "campus sessions per day")
	flag.Parse()

	byName := map[string]experiments.Experiment{}
	var names []string
	for _, e := range experiments.Catalog {
		byName[e.Name] = e
		names = append(names, e.Name)
	}

	args := flag.Args()
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: vpexperiments [flags] <experiment>|all")
		fmt.Fprintln(os.Stderr, "experiments:", strings.Join(names, " "))
		os.Exit(2)
	}
	todo := args
	for _, a := range args {
		if a == "all" {
			todo = names
			break
		}
	}

	for _, name := range todo {
		e, ok := byName[name]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			os.Exit(2)
		}
		rs, err := e.Run(ctx)
		if err != nil {
			fmt.Fprintln(os.Stderr, "vpexperiments:", err)
			os.Exit(1)
		}
		for _, r := range rs {
			fmt.Println(r)
		}
	}
}
