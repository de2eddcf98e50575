package main

// workloadDef names a workload and says why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
	// Passes is how many passes over the workload one repetition of the
	// timed phase replays at the contract's runSeconds and full sizes: a
	// fixed count, so a run's work repeats exactly and only its time varies.
	// Sized on seed 13 on the two-core reference host to about 1.5 s.
	Passes int `json:"-"`
}

// runSeconds is BENCHMARK.json's run_seconds: the seconds the frozen pass
// counts were sized for. Another --seconds scales them in proportion.
const runSeconds = 15

var workloads = []workloadDef{
	{"churn", "distinct short flows re-created every pass: handshake parse, assembly, encode, predict and flow-table put/expire do the work", 120},
	{"stream", "packets of established long flows only: decode, shard hand-off and flow-table touch do the work, classification none", 290},
	{"adversarial", "churn with half the flows ECH, 0-RTT or migrating: per-frame early classify, CID index, re-key and abstains", 105},
	{"daemon", "churn through the whole server: rollup, window store, HTTP reads beside seals, observer and tracer attached", 102},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, wd := range workloads {
		if wd.Name == name {
			return wd, true
		}
	}
	return workloadDef{}, false
}

// metricDef describes one metric the benchmark prints.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the parent's median by which the metric may get
	// worse before a change counts as a regression; 0 means not gated.
	Bound float64
	// On lists the workloads the metric is measured on; empty means all.
	On []string
	// Moves says which end-to-end metric the layer metric should move, on
	// which workload.
	Moves string
}

func (m metricDef) on(workload string) bool {
	if len(m.On) == 0 {
		return true
	}
	for _, w := range m.On {
		if w == workload {
			return true
		}
	}
	return false
}

// endToEnd are the end-to-end metrics every workload has: BENCHMARK.json's
// end_to_end list, which the driver gates. They are absolute — packets per
// second, CPU per packet, heap, set-up time — so a change to any layer of
// the spine moves them; the times are stated at the reference host's speed
// (yardstick.go). Bounds: README.md, "Bounds and measured spread".
var endToEnd = []metricDef{
	{Name: "pkts_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ns_per_pkt", Unit: "ns", Better: "lower", Bound: 0.25},
	{Name: "live_heap_mb", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

var churning = []string{"churn", "adversarial", "daemon"}
var daemonOnly = []string{"daemon"}

// someWorkloads are end-to-end metrics too, on the workloads that have
// them: stream finalizes no flow and only daemon answers HTTP. The driver's
// end_to_end list is one list for all workloads and wants every metric on
// it non-zero everywhere, so BENCHMARK.json carries these first under
// per_layer; an end-to-end run measures them all the same and -compare
// gates them by Bound. On the churning workloads flows_per_s is pkts_per_s
// times the workload's fixed flows-per-frame, so the driver's gate on
// pkts_per_s gates it too.
var someWorkloads = []metricDef{
	{Name: "flows_per_s", Unit: "1/s", Better: "higher", Bound: 0.25, On: churning, Moves: "end-to-end on churn, adversarial, daemon"},
	{Name: "query_p50_us", Unit: "us", Better: "lower", Bound: 0.25, On: daemonOnly, Moves: "end-to-end on daemon"},
	{Name: "scrape_p50_us", Unit: "us", Better: "lower", Bound: 0.25, On: daemonOnly, Moves: "end-to-end on daemon"},
}

// gated is everything -compare judges against a bound.
var gated = append(append([]metricDef{}, endToEnd...), someWorkloads...)

// hostDefs are the host's speed and the unscaled figures; an end-to-end run
// prints them beside the gated ones.
var hostDefs = []metricDef{
	{Name: "host.speed", Unit: "ratio", Better: "higher", Moves: "none: the host's speed beside the timed phase as a share of the quiet reference host's, from the yardstick"},
	{Name: "raw.pkts_per_s", Unit: "1/s", Better: "higher", Moves: "pkts_per_s as the clock gave it: pkts_per_s times host.speed"},
	{Name: "raw.cpu_ns_per_pkt", Unit: "ns", Better: "lower", Moves: "cpu_ns_per_pkt as the clock gave it: cpu_ns_per_pkt over host.speed"},
	{Name: "raw.setup_s", Unit: "s", Better: "lower", Moves: "setup_s as the clock gave it"},
}

// layers are the metrics of single layers, from the traced run and the
// layers' public accessors. The layers' own times are as the clock gave
// them, not scaled to the reference host.
var layers = append(append([]metricDef{}, hostDefs...), []metricDef{
	{Name: "packet.parse_ns_per_pkt", Unit: "ns", Better: "lower", Moves: "pkts_per_s, cpu_ns_per_pkt on stream; ~0 on churn"},
	{Name: "packet.parse_allocs_per_pkt", Unit: "count", Better: "lower", Moves: "cpu_ns_per_pkt on stream"},
	{Name: "packet.flow_key_ns_per_pkt", Unit: "ns", Better: "lower", Moves: "pkts_per_s, cpu_ns_per_pkt on stream"},
	{Name: "pcap.read_ns_per_pkt", Unit: "ns", Better: "lower", Moves: "pkts_per_s of a file replay; off the timed path here"},

	{Name: "sharded.ingest_ns_per_pkt", Unit: "ns", Better: "lower", Moves: "pkts_per_s on stream"},
	{Name: "sharded.ingest_busy_share", Unit: "share", Better: "lower", Moves: "pkts_per_s on stream"},
	{Name: "sharded.stalls", Unit: "count", Better: "lower", Moves: "pkts_per_s on stream"},
	{Name: "sharded.queue_depth_mean", Unit: "count", Better: "lower", Moves: "pkts_per_s on stream"},
	{Name: "sharded.queue_depth_max", Unit: "count", Better: "lower", Moves: "pkts_per_s on stream"},
	{Name: "sharded.dropped_results", Unit: "count", Better: "lower", Moves: "none: Results() is best-effort"},
	{Name: "sharded.ignored", Unit: "count", Better: "lower", Moves: "none: must stay 0"},
	{Name: "sharded.filtered", Unit: "count", Better: "lower", Moves: "none: must stay 0"},
	{Name: "sharded.drain_ms", Unit: "ms", Better: "lower", Moves: "pkts_per_s on stream"},
	{Name: "sharded.shards1_pkts_per_s", Unit: "1/s", Better: "higher", Moves: "pkts_per_s on stream"},
	{Name: "sharded.migrations", Unit: "count", Better: "higher", On: []string{"adversarial"}, Moves: "exact count on adversarial"},
	{Name: "sharded.early_classified", Unit: "count", Better: "higher", On: []string{"adversarial"}, Moves: "exact count on adversarial"},

	{Name: "pipeline.single_ns_per_pkt", Unit: "ns", Better: "lower", Moves: "the single-thread baseline of every workload"},
	{Name: "pipeline.single_pkts_per_s", Unit: "1/s", Better: "higher", Moves: "its gap to pkts_per_s is Sharded's hand-off cost"},
	{Name: "pipeline.single_allocs_per_pkt", Unit: "count", Better: "lower", Moves: "cpu_ns_per_pkt on churn"},
	{Name: "sharded.speedup_vs_single", Unit: "ratio", Better: "higher", Moves: "hand-off diagnostic: pkts_per_s over pipeline.single_pkts_per_s; both sides share every other layer"},
	{Name: "sharded.cpu_vs_single", Unit: "ratio", Better: "lower", Moves: "hand-off diagnostic: cpu_ns_per_pkt over pipeline.single_ns_per_pkt"},

	{Name: "tlsproto.parse_ns_per_hello", Unit: "ns", Better: "lower", Moves: "flows_per_s, cpu_ns_per_pkt on churn, adversarial; none on stream"},
	{Name: "quicproto.initial_ns_per_pkt", Unit: "ns", Better: "lower", Moves: "flows_per_s, cpu_ns_per_pkt on churn, adversarial; none on stream"},
	{Name: "pipeline.assemble_ns_per_flow", Unit: "ns", Better: "lower", Moves: "flows_per_s, cpu_ns_per_pkt on churn, adversarial; none on stream"},
	{Name: "pipeline.assemble_allocs_per_flow", Unit: "count", Better: "lower", Moves: "cpu_ns_per_pkt on churn"},

	{Name: "features.encode_ns_per_flow", Unit: "ns", Better: "lower", Moves: "flows_per_s on churn"},
	{Name: "features.encode_ref_ns_per_flow", Unit: "ns", Better: "lower", Moves: "none: the reference encoder is off the serving path"},
	{Name: "ml.predict_batch_ns_per_flow", Unit: "ns", Better: "lower", Moves: "flows_per_s on churn"},
	{Name: "ml.predict_ns_per_flow", Unit: "ns", Better: "lower", Moves: "flows_per_s on adversarial"},
	{Name: "ml.predict_ref_ns_per_flow", Unit: "ns", Better: "lower", Moves: "none: the pointer walk is off the serving path"},
	{Name: "bank.classify_batch_ns_per_flow", Unit: "ns", Better: "lower", Moves: "flows_per_s on churn"},
	{Name: "bank.compiled_bytes", Unit: "B", Better: "lower", Moves: "live_heap_mb everywhere, by a constant"},
	{Name: "bank.classify_ns_per_flow", Unit: "ns", Better: "lower", Moves: "flows_per_s on adversarial"},
	{Name: "bank.classify_partial_ns_per_flow", Unit: "ns", Better: "lower", Moves: "flows_per_s on adversarial"},

	{Name: "flowtable.touch_ns", Unit: "ns", Better: "lower", Moves: "pkts_per_s on stream"},
	{Name: "flowtable.put_ns", Unit: "ns", Better: "lower", Moves: "flows_per_s on churn"},
	{Name: "flowtable.expire_ns_per_flow", Unit: "ns", Better: "lower", Moves: "flows_per_s on churn"},
	{Name: "flowtable.rekey_ns", Unit: "ns", Better: "lower", Moves: "flows_per_s on adversarial"},
	{Name: "flowtable.bytes_per_flow", Unit: "B", Better: "lower", Moves: "live_heap_mb on churn"},
	{Name: "flowtable.inserted", Unit: "count", Better: "higher", Moves: "exact count: flows per pass"},
	{Name: "flowtable.evicted_idle", Unit: "count", Better: "higher", Moves: "exact count: flows per pass on the churning workloads"},
	{Name: "flowtable.evicted_cap", Unit: "count", Better: "lower", Moves: "none: must stay 0"},
	{Name: "flowtable.rekeyed", Unit: "count", Better: "higher", Moves: "exact count on adversarial"},

	{Name: "rollup.add_ns_per_flow", Unit: "ns", Better: "lower", Moves: "flows_per_s on daemon"},
	{Name: "rollup.seal_ns_per_window", Unit: "ns", Better: "lower", Moves: "flows_per_s on daemon"},
	{Name: "rollup.windows_sealed", Unit: "count", Better: "higher", On: daemonOnly, Moves: "per pass on daemon"},
	{Name: "rollup.late_flows", Unit: "count", Better: "lower", On: daemonOnly, Moves: "per pass on daemon; depends on cross-shard arrival order"},
	{Name: "store.write_ns_per_window", Unit: "ns", Better: "lower", Moves: "flows_per_s on daemon"},
	{Name: "store.query_ns", Unit: "ns", Better: "lower", Moves: "query_p50_us on daemon; never pkts_per_s"},
	{Name: "store.windows_retained", Unit: "count", Better: "higher", On: daemonOnly, Moves: "query_p50_us on daemon"},
	{Name: "store.evicted_windows", Unit: "count", Better: "lower", On: daemonOnly, Moves: "none: the store starts full"},
	{Name: "store.compactions", Unit: "count", Better: "higher", On: daemonOnly, Moves: "none"},
	{Name: "server.query_http_overhead_us", Unit: "us", Better: "lower", On: daemonOnly, Moves: "query_p50_us on daemon"},
	{Name: "server.query_p85_us", Unit: "us", Better: "lower", On: daemonOnly, Moves: "query_p50_us on daemon"},
	{Name: "server.scrape_p75_us", Unit: "us", Better: "lower", On: daemonOnly, Moves: "scrape_p50_us on daemon"},
	{Name: "server.stats_p50_us", Unit: "us", Better: "lower", On: daemonOnly, Moves: "scrape_p50_us on daemon"},
	{Name: "server.response_bytes_query", Unit: "B", Better: "lower", On: daemonOnly, Moves: "query_p50_us on daemon"},
	{Name: "server.requests", Unit: "count", Better: "higher", On: daemonOnly, Moves: "sample size behind the HTTP percentiles"},
	{Name: "server.shutdown_ms", Unit: "ms", Better: "lower", On: daemonOnly, Moves: "none"},

	{Name: "obs.record_ns", Unit: "ns", Better: "lower", Moves: "the daemon-versus-churn gap in cpu_ns_per_pkt"},
	{Name: "obs.instrumented_pkts_ratio", Unit: "ratio", Better: "higher", Moves: "the daemon-versus-churn gap in cpu_ns_per_pkt"},
	{Name: "obs.stage_decode_mean_ns", Unit: "ns", Better: "lower", Moves: "cross-check of sharded.ingest_ns_per_pkt"},
	{Name: "obs.stage_queue_wait_p50_ns", Unit: "ns", Better: "lower", Moves: "cross-check of sharded.queue_depth_mean"},
	{Name: "obs.stage_assembly_mean_ns", Unit: "ns", Better: "lower", Moves: "cross-check of pipeline.assemble_ns_per_flow"},
	{Name: "obs.stage_classify_mean_ns", Unit: "ns", Better: "lower", Moves: "cross-check of bank.classify_batch_ns_per_flow; reported, not gated"},

	{Name: "sharded.verdict_lag_p50_us", Unit: "us", Better: "lower", Moves: "diagnostic only"},
	{Name: "sharded.verdict_lag_p99_us", Unit: "us", Better: "lower", Moves: "diagnostic only"},
	{Name: "sharded.gen_late_max_us", Unit: "us", Better: "lower", Moves: "diagnostic only: how late the open-loop generator ran"},

	{Name: "runtime.allocs_per_pkt", Unit: "count", Better: "lower", Moves: "cpu_ns_per_pkt everywhere"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower", Moves: "cpu_ns_per_pkt on churn"},
	{Name: "runtime.gc_pause_total_ms", Unit: "ms", Better: "lower", Moves: "pkts_per_s on churn"},
	{Name: "quality.accuracy_classified", Unit: "share", Better: "higher", Moves: "none: a change that moves it changed behaviour"},
	{Name: "quality.abstain_share", Unit: "share", Better: "lower", Moves: "none: a change that moves it changed behaviour"},
	{Name: "setup.train_s", Unit: "s", Better: "lower", Moves: "setup_s"},
	{Name: "setup.render_s", Unit: "s", Better: "lower", Moves: "setup_s"},
	{Name: "setup.reference_s", Unit: "s", Better: "lower", Moves: "setup_s"},
	{Name: "trace.spans", Unit: "count", Better: "lower", Moves: "none"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower", Moves: "none: what the threaded trace costs, median of alternating pairs"},
	{Name: "trace.budget_coverage", Unit: "share", Better: "higher", Moves: "none: how much of the single-thread cost the layer budget explains"},
	{Name: "trace.unattributed_ns_per_pkt", Unit: "ns", Better: "lower", Moves: "none: single-thread cost per packet no staged layer accounts for"},
}...)

// perLayer is what BENCHMARK.json lists under per_layer and a traced run
// prints.
var perLayer = append(append([]metricDef{}, someWorkloads...), layers...)

// exactCounts are the per-layer metrics that must repeat exactly between
// two runs of one commit with one seed.
var exactCounts = map[string]bool{
	"sharded.ignored": true, "sharded.filtered": true, "sharded.migrations": true, "sharded.early_classified": true,
	"flowtable.inserted": true, "flowtable.evicted_idle": true, "flowtable.evicted_cap": true, "flowtable.rekeyed": true,
	"rollup.windows_sealed": true, "store.windows_retained": true,
	"quality.accuracy_classified": true, "quality.abstain_share": true, "bank.compiled_bytes": true,
}

func findMetric(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}

// metricValue is one measured metric. Reps holds the per-repetition values
// behind a median, where the metric has them.
type metricValue struct {
	Value float64   `json:"value"`
	Unit  string    `json:"unit"`
	Q1    float64   `json:"q1,omitempty"`
	Q3    float64   `json:"q3,omitempty"`
	Reps  []float64 `json:"reps,omitempty"`
}

type metricSet map[string]metricValue

func (s metricSet) set(name string, v float64) {
	def, _ := findMetric(name)
	s[name] = metricValue{Value: v, Unit: def.Unit}
}

// setReps records a metric as the median of its per-repetition values.
func (s metricSet) setReps(name string, reps []float64) {
	def, _ := findMetric(name)
	q1, q2, q3 := quartiles(reps)
	s[name] = metricValue{Value: q2, Unit: def.Unit, Q1: q1, Q3: q3, Reps: reps}
}

// fill zeroes every catalogued metric the run did not measure, so a result
// always carries the full list.
func (s metricSet) fill(defs []metricDef) {
	for _, m := range defs {
		if _, ok := s[m.Name]; !ok {
			s[m.Name] = metricValue{Unit: m.Unit}
		}
	}
}
