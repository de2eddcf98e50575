package main

import (
	"fmt"
	"io"
)

// compareFiles prints, per workload and metric, how result set B differs
// from A, judged against the frozen bounds. A gated metric whose
// within-run spread exceeds its bound is unresolved, never unchanged. It
// returns an error when any gated metric regressed, an exact count
// changed, or an oracle failed.
func compareFiles(w io.Writer, pathA, pathB string) error {
	a, err := readResultSet(pathA)
	if err != nil {
		return err
	}
	b, err := readResultSet(pathB)
	if err != nil {
		return err
	}
	if a.Seed != b.Seed || a.Seconds != b.Seconds || a.GOMAXPROCS != b.GOMAXPROCS {
		fmt.Fprintf(w, "note: settings differ (seed %d/%d, seconds %g/%g, GOMAXPROCS %d/%d)\n",
			a.Seed, b.Seed, a.Seconds, b.Seconds, a.GOMAXPROCS, b.GOMAXPROCS)
	}
	regressions := 0
	for _, wd := range workloads {
		wa, okA := a.Workloads[wd.Name]
		wb, okB := b.Workloads[wd.Name]
		if !okA || !okB {
			fmt.Fprintf(w, "== %s: missing from one set\n", wd.Name)
			regressions++
			continue
		}
		fmt.Fprintf(w, "== %s\n", wd.Name)
		regressions += compareRuns(w, wd.Name, wa.EndToEnd, wb.EndToEnd, gated)
		regressions += compareRuns(w, wd.Name, wa.PerLayer, wb.PerLayer, layers)
		for _, r := range []*result{wb.EndToEnd, wb.PerLayer} {
			if !r.Correct {
				fmt.Fprintf(w, "  failed_share %.6f in B: REGRESSION (must be 0)\n", r.failedShare())
				regressions++
			}
		}
	}
	if regressions > 0 {
		return fmt.Errorf("%d regressions", regressions)
	}
	fmt.Fprintln(w, "no regression")
	return nil
}

func compareRuns(w io.Writer, workload string, a, b *result, defs []metricDef) int {
	regressions := 0
	for _, def := range defs {
		if !def.on(workload) {
			continue
		}
		va, vb := a.Metrics[def.Name], b.Metrics[def.Name]
		verdict := judge(def, va, vb)
		if verdict == "REGRESSION" || verdict == "COUNT CHANGED" {
			regressions++
		}
		delta := 0.0
		if va.Value != 0 {
			delta = (vb.Value - va.Value) / va.Value
		}
		fmt.Fprintf(w, "  %-36s %16.4f -> %16.4f %-6s %+7.1f%%  %s\n", def.Name, va.Value, vb.Value, def.Unit, delta*100, verdict)
	}
	return regressions
}

// judge names what happened to one metric between A and B.
func judge(def metricDef, a, b metricValue) string {
	if exactCounts[def.Name] {
		if a.Value != b.Value {
			return "COUNT CHANGED"
		}
		return "identical"
	}
	if def.Bound == 0 {
		return ""
	}
	if a.Value == 0 {
		return "no baseline"
	}
	if s := max(spread(a.Reps), spread(b.Reps)); s > def.Bound {
		return fmt.Sprintf("unresolved (spread %.0f%% > bound %.0f%%)", s*100, def.Bound*100)
	}
	worse := (b.Value - a.Value) / a.Value
	if def.Better == "higher" {
		worse = -worse
	}
	if worse > def.Bound {
		return "REGRESSION"
	}
	return fmt.Sprintf("within bound %.0f%%", def.Bound*100)
}
