package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"videoplat/internal/flowtable"
	"videoplat/internal/pipeline"
	"videoplat/internal/telemetry"
	"videoplat/internal/tracegen"
)

func quickSetup(t *testing.T, name string) *setup {
	t.Helper()
	st, err := newSetup(name, 13, quickSizes)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestSameSeedSameFrames(t *testing.T) {
	for _, wd := range workloads {
		a, err := render(wd.Name, 13, quickSizes)
		if err != nil {
			t.Fatal(err)
		}
		b, err := render(wd.Name, 13, quickSizes)
		if err != nil {
			t.Fatal(err)
		}
		c, err := render(wd.Name, 14, quickSizes)
		if err != nil {
			t.Fatal(err)
		}
		if a.hash != b.hash {
			t.Errorf("%s: seed 13 rendered two different frame sets", wd.Name)
		}
		if a.hash == c.hash {
			t.Errorf("%s: seeds 13 and 14 rendered the same frames", wd.Name)
		}
		if wd.Name != "stream" && len(a.frames)%benchBatch != 0 {
			t.Errorf("%s: pass of %d frames is not a whole number of %d-frame batches", wd.Name, len(a.frames), benchBatch)
		}
	}
	churn, _ := render("churn", 13, quickSizes)
	daemon, _ := render("daemon", 13, quickSizes)
	if churn.hash == daemon.hash {
		t.Error("churn and daemon share frames; each workload must render its own")
	}
}

func TestQuantileHelpers(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	if q1, q2, q3 := quartiles(xs); q1 != 2 || q2 != 3 || q3 != 4 {
		t.Errorf("quartiles(1..5) = %v %v %v, want 2 3 4", q1, q2, q3)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := spread(xs); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("spread = %v, want 2/3", got)
	}
	if quantile(nil, 0.5) != 0 || spread([]float64{0, 0, 0}) != 0 {
		t.Error("empty and all-zero samples must give 0")
	}
	if xs[0] != 5 || xs[4] != 3 || sort.Float64sAreSorted(xs) {
		t.Error("quantile must not reorder its input")
	}
	ns := []int64{50, 10, 40, 20, 30, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {90, 90}, {99, 100}, {100, 100}, {0, 10}} {
		if got := percentileNS(ns, c.p); got != c.want {
			t.Errorf("p%v = %d, want %d", c.p, got, c.want)
		}
	}
	if percentileNS(nil, 50) != 0 {
		t.Error("empty latency sample must give 0")
	}
}

// A 200-flow mini-workload of every kind passes the oracle end to end.
func TestMiniWorkloadsPassOracle(t *testing.T) {
	for _, wd := range workloads {
		res, err := endToEndRun(wd.Name, 13, 0.2, quickSizes, 1)
		if err != nil {
			t.Fatalf("%s: %v", wd.Name, err)
		}
		if !res.Correct || res.Attempted == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", wd.Name, res.Failed, res.Attempted, res.Problems)
		}
		for _, def := range endToEnd {
			if v := res.Metrics[def.Name].Value; !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, must be positive", wd.Name, def.Name, v)
			}
		}
	}
}

// The oracle can fail: one flipped reference verdict fails every pass's
// record of that flow, and a flipped platform does the same.
func TestFlippedVerdictFails(t *testing.T) {
	st := quickSetup(t, "churn")
	st.ref.flows[7].verdict = pipeline.VerdictNotVideo
	st.ref.flows[11].platform += "-flipped"
	res := runSharded(st, 1, newYardstick(1), 0)
	passes := res.outcome.attempted / len(st.w.flows)
	if res.outcome.failed != 2*passes {
		t.Fatalf("failed = %d over %d passes, want two mismatches per pass; problems: %v",
			res.outcome.failed, passes, res.outcome.problems)
	}
}

// A missing or duplicated terminal record fails the check too.
func TestCheckerCountsRecordsPerFlow(t *testing.T) {
	st := quickSetup(t, "churn")
	chk := newChecker(st.ref)
	for i, rec := range st.ref.records {
		if i == 3 {
			continue // flow 3 never reports
		}
		chk.observe(rec)
	}
	chk.observe(st.ref.records[5]) // flow 5 reports twice
	foreign := *st.ref.records[0]
	foreign.Key.SrcPort, foreign.Key.DstPort = 1, 2
	chk.observe(&foreign)
	n := len(st.ref.records)
	_, f := chk.verdict(1, n, counters{table: flowtable.Stats{Inserted: uint64(n)}})
	if f.failed != 3 {
		t.Fatalf("failed = %d, want 3 (one missing, one duplicate, one foreign): %v", f.failed, f.problems)
	}
	_, f = newChecker(st.ref).verdict(0, 0, counters{table: flowtable.Stats{EvictedCap: 2}, ignored: 1, filtered: 1})
	if f.failed != 4 {
		t.Fatalf("counter violations failed %d operations, want 4", f.failed)
	}
}

// Trap 1: Results() is best-effort and drops under saturation, so terminal
// records come from OnEvict plus Flows() after Close — the path the
// daemon's rollup uses — and those are complete however many results drop.
func TestTerminalRecordsSurviveDroppedResults(t *testing.T) {
	st := quickSetup(t, "churn")
	chk := newChecker(st.ref)
	cfg := pipelineConfig(st.w, func(rec *pipeline.FlowRecord, _ flowtable.Reason) { chk.observe(rec) })
	cfg.ResultsBuffer = 4
	s := pipeline.NewShardedWithConfig(st.bank, benchShards, cfg) // nobody drains Results()
	d := newDriver(st.w, s)
	d.warm()
	d.pass()
	drained := make(chan struct{})
	close(drained)
	o := d.finish(chk, drained)
	if o.failed != 0 {
		t.Fatalf("OnEvict + Flows() lost records: %v", o.problems)
	}
	delivered := len(s.Results())
	if o.ingest.DroppedResults == 0 || delivered >= 2*len(st.w.flows) {
		t.Fatalf("expected Results() to drop: delivered %d, dropped %d", delivered, o.ingest.DroppedResults)
	}
}

// Trap 2: tracegen draws client tuples from about four million values, so
// rendered flows collide; a flow whose key, or migrated key, is already
// taken is skipped at render time.
func TestRenderSkipsTakenKeys(t *testing.T) {
	r := newRenderer("adversarial", 13)
	spec := pipelineTestSpec()
	spec.Options.Migration = true
	c, tr := r.draw(true)
	ft, err := r.g.Flow(c.label, c.prov, tr, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !ft.Migrated {
		t.Fatal("migration flow did not migrate")
	}
	if !r.claim(ft) {
		t.Fatal("first claim refused")
	}
	if r.claim(ft) || r.w.skipped != 1 {
		t.Fatal("a flow on a taken key must be skipped and counted")
	}
	// Another flow that lands on the first one's post-migration tuple.
	other, err := r.g.Flow(c.label, c.prov, tr, pipelineTestSpec())
	if err != nil {
		t.Fatal(err)
	}
	other.ClientAddr, other.ClientPort = ft.MigratedAddr, ft.MigratedPort
	if r.claim(other) || r.w.skipped != 2 {
		t.Fatal("a flow on a taken migrated key must be skipped")
	}
	w, err := render("adversarial", 13, quickSizes)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[any]bool{}
	for _, m := range w.flows {
		if seen[m.key] {
			t.Fatalf("rendered workload holds key %v twice", m.key)
		}
		seen[m.key] = true
	}
}

// Trap 3: which window a flow lands in depends on the order records from
// different shards reach the rollup, so the daemon oracle compares integer
// totals over all sealed windows and never per-window cells.
func TestWindowTotalsSurviveArrivalOrder(t *testing.T) {
	st := quickSetup(t, "daemon")
	recs := make([]pipeline.FlowRecord, len(st.ref.records))
	for i, r := range st.ref.records {
		recs[i] = *r
		if i%2 == 1 { // every other flow finalizes a minute later
			recs[i].FirstSeen = recs[i].FirstSeen.Add(time.Minute)
			recs[i].LastSeen = recs[i].LastSeen.Add(time.Minute)
		}
	}
	fold := func(order []int) (*tally, []int) {
		sink := &tally{}
		var perWindow []int
		roll := telemetry.NewRollup(time.Minute, telemetry.MultiSink(sink, sinkFunc(func(w *telemetry.Window) {
			perWindow = append(perWindow, w.Flows)
		})))
		for _, i := range order {
			roll.Add(&recs[i])
		}
		roll.Flush()
		return sink, perWindow
	}
	inOrder := make([]int, 0, len(recs))
	for parity := 0; parity < 2; parity++ {
		for i := parity; i < len(recs); i += 2 {
			inOrder = append(inOrder, i)
		}
	}
	interleaved := make([]int, len(recs)) // as two shards' evictions might interleave
	for i := range interleaved {
		interleaved[i] = i
	}
	a, cellsA := fold(inOrder)
	b, cellsB := fold(interleaved)
	if a.late != 0 || b.late == 0 {
		t.Fatalf("late flows: in order %d, interleaved %d; want 0 and some", a.late, b.late)
	}
	if len(cellsA) == len(cellsB) && cellsA[0] == cellsB[0] {
		t.Fatal("per-window cells agreed; the test no longer shows why they are not compared")
	}
	aj, _ := json.Marshal(a.verdicts)
	bj, _ := json.Marshal(b.verdicts)
	if a.flows != b.flows || a.bytes != b.bytes || !bytes.Equal(aj, bj) {
		t.Fatalf("totals differ with arrival order: flows %d/%d bytes %d/%d verdicts %s/%s", a.flows, b.flows, a.bytes, b.bytes, aj, bj)
	}
	if a.flows != len(recs) || a.bytes != st.ref.bytes {
		t.Fatalf("totals %d flows %d bytes, want the reference's %d and %d", a.flows, a.bytes, len(recs), st.ref.bytes)
	}
}

func pipelineTestSpec() tracegen.FlowSpec {
	return tracegen.FlowSpec{Start: traceBase, Duration: churnDuration, PayloadFrames: churnPayload}
}

type sinkFunc func(*telemetry.Window)

func (f sinkFunc) WriteWindow(w *telemetry.Window) error { f(w); return nil }

func TestSelfTimeSubtractsChildren(t *testing.T) {
	r := &recorder{spans: []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "layer", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "layer", Start: 50, End: 70},
		{ID: 4, Parent: 3, Name: "inner", Start: 55, End: 60},
	}}
	self := r.selfTimes()
	if self["root"] != 50 || self["layer"] != 45 || self["inner"] != 5 {
		t.Fatalf("self times %v, want root 50, layer 45, inner 5", self)
	}
}

func TestJudge(t *testing.T) {
	higher := metricDef{Name: "pkts_per_s", Better: "higher", Bound: 0.10}
	lower := metricDef{Name: "cpu_ns_per_pkt", Better: "lower", Bound: 0.10}
	steady := func(v float64) metricValue { return metricValue{Value: v, Reps: []float64{v, v, v, v, v}} }
	noisy := metricValue{Value: 100, Reps: []float64{60, 80, 100, 120, 140}}
	for _, c := range []struct {
		def  metricDef
		a, b metricValue
		want string
	}{
		{higher, steady(100), steady(95), "within bound 10%"},
		{higher, steady(100), steady(85), "REGRESSION"},
		{higher, steady(100), steady(130), "within bound 10%"},
		{lower, steady(100), steady(115), "REGRESSION"},
		{lower, steady(100), steady(80), "within bound 10%"},
		{higher, noisy, steady(50), "unresolved (spread 40% > bound 10%)"},
		{metricDef{Name: "flowtable.inserted"}, steady(6000), steady(6001), "COUNT CHANGED"},
		{metricDef{Name: "flowtable.inserted"}, steady(6000), steady(6000), "identical"},
		{metricDef{Name: "flowtable.put_ns"}, steady(1), steady(9), ""},
	} {
		if got := judge(c.def, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v -> %v) = %q, want %q", c.def.Name, c.a.Value, c.b.Value, got, c.want)
		}
	}
}

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json and README.md's metric tables from the catalogue in metrics.go")

// The tables README.md carries sit between these two lines.
const tablesBegin, tablesEnd = "<!-- catalogue: go test -run TestContractMatchesCatalogue -update -->\n", "<!-- /catalogue -->\n"

// BENCHMARK.json at the root of the repository and README.md's metric
// tables are the catalogue, rendered, and stay inside the driver's limits.
func TestContractMatchesCatalogue(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	begin := bytes.Index(readme, []byte(tablesBegin))
	end := bytes.Index(readme, []byte(tablesEnd))
	if begin < 0 || end < begin {
		t.Fatal("README.md lacks the catalogue markers")
	}
	begin += len(tablesBegin)
	var tables bytes.Buffer
	catalogue(&tables)
	if *update {
		readme = append(append(append([]byte{}, readme[:begin]...), tables.Bytes()...), readme[end:]...)
		if err := os.WriteFile("README.md", readme, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("../BENCHMARK.json", contract(), 0o644); err != nil {
			t.Fatal(err)
		}
	} else if !bytes.Equal(readme[begin:end], tables.Bytes()) {
		t.Error("README.md's metric tables differ from the catalogue; rerun this test with -update")
	}
	onDisk, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, contract()) {
		t.Error("BENCHMARK.json differs from the catalogue; rerun this test with -update")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(m metricDef) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("metric %q (unit %q) breaks the naming rules or repeats", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %q: better = %q", m.Name, m.Better)
		}
		seen[m.Name] = true
	}
	hasSetup := false
	for _, m := range endToEnd {
		check(m)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %q: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	for _, m := range perLayer {
		check(m)
	}
	if !hasSetup || len(endToEnd) > 16 || len(perLayer) > 128 || len(workloads) < 2 || len(workloads) > 8 {
		t.Error("catalogue outside the driver's limits")
	}
	for _, wd := range workloads {
		if !name.MatchString(wd.Name) || len(wd.Why) > 200 || seen[wd.Name] {
			t.Errorf("workload %q breaks the naming rules", wd.Name)
		}
	}
	if len(onDisk) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(onDisk))
	}
}

// contract renders BENCHMARK.json from the catalogue, so the file at the
// root of the repository cannot drift from what the program prints.
func contract() []byte {
	type e2eEntry struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	type layerEntry struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	doc := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []e2eEntry    `json:"end_to_end"`
		PerLayer   []layerEntry  `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		Workloads:  workloads,
	}
	for _, m := range endToEnd {
		doc.EndToEnd = append(doc.EndToEnd, e2eEntry{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range perLayer {
		doc.PerLayer = append(doc.PerLayer, layerEntry{m.Name, m.Unit, m.Better})
	}
	out, _ := json.MarshalIndent(doc, "", "  ") // plain structs of strings and numbers cannot fail to encode
	return append(out, '\n')
}

// catalogue prints every metric with unit, direction, bound and, for layer
// metrics, the end-to-end metric each should move: the tables in README.md.
func catalogue(w io.Writer) {
	bound := func(m metricDef) string {
		if m.Bound == 0 {
			return "—"
		}
		return fmt.Sprintf("%.0f %%", m.Bound*100)
	}
	on := func(m metricDef) string {
		if len(m.On) == 0 {
			return "all"
		}
		return strings.Join(m.On, ", ")
	}
	fmt.Fprintln(w, "| end-to-end metric | unit | better | bound | workloads |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	for _, m := range gated {
		fmt.Fprintf(w, "| `%s` | %s | %s | %s | %s |\n", m.Name, m.Unit, m.Better, bound(m), on(m))
	}
	fmt.Fprintln(w, "| `failed_share` | share | lower | must be 0 | all |")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| per-layer metric | unit | better | workloads | should move |")
	fmt.Fprintln(w, "|---|---|---|---|---|")
	for _, m := range layers {
		fmt.Fprintf(w, "| `%s` | %s | %s | %s | %s |\n", m.Name, m.Unit, m.Better, on(m), m.Moves)
	}
}
