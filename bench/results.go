package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
)

// workloadResult is one workload's entry in a result set: the tracing-off
// run and the traced run side by side.
type workloadResult struct {
	EndToEnd *result `json:"end_to_end"`
	PerLayer *result `json:"per_layer"`
}

// resultSet is one complete run of the benchmark: what a BENCH_<n>.json
// baseline holds and what -compare reads.
type resultSet struct {
	GoVersion  string                    `json:"go_version"`
	NProc      int                       `json:"nproc"`
	GOMAXPROCS int                       `json:"gomaxprocs"`
	Shards     int                       `json:"shards"`
	Batch      int                       `json:"batch"`
	Seed       uint64                    `json:"seed"`
	Seconds    float64                   `json:"seconds"`
	Sizes      map[string]int            `json:"sizes"`
	Passes     map[string]int            `json:"passes_per_repetition"`
	Workloads  map[string]workloadResult `json:"workloads"`
}

func newResultSet(seed uint64, seconds float64, sz sizes) *resultSet {
	passes := map[string]int{}
	for _, wd := range workloads {
		passes[wd.Name] = passesFor(wd.Name, seconds, sz)
	}
	return &resultSet{
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Shards: benchShards, Batch: benchBatch, Seed: seed, Seconds: seconds,
		Sizes: map[string]int{"churn_flows": sz.churnFlows, "stream_flows": sz.streamFlows,
			"stream_frames": sz.streamFrames, "store_windows": sz.storeWindows, "store_records": sz.storeRecords},
		Passes:    passes,
		Workloads: map[string]workloadResult{},
	}
}

func (rs *resultSet) write(path string) error {
	data, err := json.MarshalIndent(rs, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs resultSet
	if err := json.Unmarshal(data, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

// printMetrics lists a run's metrics by name, each with its unit, its
// direction and, where it is gated, its regression bound.
func printMetrics(w io.Writer, res *result, defs []metricDef) {
	for _, def := range defs {
		v, ok := res.Metrics[def.Name]
		if !ok || !def.on(res.Workload) {
			continue
		}
		arrow := "lower is better"
		if def.Better == "higher" {
			arrow = "higher is better"
		}
		line := fmt.Sprintf("  %-36s %16.4f %-6s %s", def.Name, v.Value, def.Unit, arrow)
		if def.Bound > 0 {
			line += fmt.Sprintf(", bound %.0f%%", def.Bound*100)
		}
		if len(v.Reps) > 0 {
			line += fmt.Sprintf("  [q1 %.4f, q3 %.4f, n=%d]", v.Q1, v.Q3, len(v.Reps))
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "  %-36s %16.4f %-6s lower is better, must be 0  [%d of %d operations]\n",
		"failed_share", res.failedShare(), "share", res.Failed, res.Attempted)
	for _, p := range res.Problems {
		fmt.Fprintln(w, "  FAILED:", p)
	}
}

// driverLine is the one JSON object the driver reads from the last line of
// standard output: exactly the catalogued metrics of the run's kind.
func driverLine(res *result, defs []metricDef) []byte {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, def := range defs {
		out.Metrics[def.Name] = value{res.Metrics[def.Name].Value, def.Unit}
	}
	line, _ := json.Marshal(out) // a struct of numbers and strings cannot fail to encode
	return line
}
