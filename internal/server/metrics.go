package server

import (
	"fmt"
	"net/http"
	"strconv"

	"videoplat/internal/obs"
	"videoplat/internal/pipeline"
)

// metricDef is one /metrics series: its Prometheus metadata plus a sampler
// producing the sample lines (with labels where applicable) for a stats
// snapshot. handleMetrics emits straight from this catalog and MetricNames
// exposes it, so a series cannot be added to the endpoint without the
// documentation drift test (docs/OPERATIONS.md) seeing it.
type metricDef struct {
	name, typ, help string
	// conditional marks series omitted in some configurations (e.g.
	// retrainer counters without -auto-retrain): the samplers return no
	// lines and the series disappears from the exposition entirely.
	conditional bool
	samples     func(st *Stats) []string
}

// gauge1 renders the common single-sample case.
func gauge1(name string, v float64) []string {
	return []string{fmt.Sprintf("%s %g", name, v)}
}

var metricsCatalog = []metricDef{
	{"videoplat_replay_packets_total", "counter", "Frames fed to the pipeline.", false,
		func(st *Stats) []string {
			return gauge1("videoplat_replay_packets_total", float64(st.Replay.Packets))
		}},
	{"videoplat_replay_bytes_total", "counter", "Frame bytes fed to the pipeline.", false,
		func(st *Stats) []string {
			return gauge1("videoplat_replay_bytes_total", float64(st.Replay.Bytes))
		}},
	{"videoplat_flows_active", "gauge", "Flows currently tracked across shards.", false,
		func(st *Stats) []string {
			return gauge1("videoplat_flows_active", float64(st.FlowTable.Active))
		}},
	{"videoplat_flows_inserted_total", "counter", "Flows ever inserted into the tables.", false,
		func(st *Stats) []string {
			return gauge1("videoplat_flows_inserted_total", float64(st.FlowTable.Inserted))
		}},
	{"videoplat_flows_evicted_total", "counter", "Flows evicted from the tables.", false,
		func(st *Stats) []string {
			return []string{
				fmt.Sprintf("videoplat_flows_evicted_total{reason=\"idle\"} %d", st.FlowTable.EvictedIdle),
				fmt.Sprintf("videoplat_flows_evicted_total{reason=\"cap\"} %d", st.FlowTable.EvictedCap),
			}
		}},
	{"videoplat_flows_rekeyed_total", "counter", "Flows re-keyed in place by QUIC connection migration.", false,
		func(st *Stats) []string {
			return gauge1("videoplat_flows_rekeyed_total", float64(st.FlowTable.Rekeyed))
		}},
	{"videoplat_flow_migrations_total", "counter", "QUIC connection migrations absorbed by CID re-keying.", false,
		func(st *Stats) []string {
			return gauge1("videoplat_flow_migrations_total", float64(st.Ingest.Migrations))
		}},
	{"videoplat_flows_early_classified_total", "counter", "Flows classified from partial handshake evidence (ECH or 0-RTT).", false,
		func(st *Stats) []string {
			return gauge1("videoplat_flows_early_classified_total", float64(st.Ingest.EarlyClassified))
		}},
	{"videoplat_flows_classified_total", "counter", "Flows classified with a platform prediction.", false,
		func(st *Stats) []string {
			return gauge1("videoplat_flows_classified_total", float64(st.ClassifiedFlows))
		}},
	{"videoplat_flows_unknown_total", "counter", "Flows rejected by the confidence selector.", false,
		func(st *Stats) []string {
			return gauge1("videoplat_flows_unknown_total", float64(st.UnknownFlows))
		}},
	{"videoplat_flows_finalized_total", "counter", "Flow records rolled up (evicted or drained).", false,
		func(st *Stats) []string {
			return gauge1("videoplat_flows_finalized_total", float64(st.FinalizedFlows))
		}},
	{"videoplat_flow_verdicts_total", "counter", "Finalized flows by terminal verdict (verdict label: classified, abstained, no-handshake, …).", false,
		func(st *Stats) []string {
			names := pipeline.VerdictNames()
			out := make([]string, 0, len(names))
			for _, name := range names {
				out = append(out, fmt.Sprintf("videoplat_flow_verdicts_total{verdict=%q} %d",
					name, st.FlowVerdicts[name]))
			}
			return out
		}},
	{"videoplat_events_total", "counter", "Ops journal events recorded by type.", false,
		func(st *Stats) []string {
			types := obs.EventTypes()
			out := make([]string, 0, len(types))
			for _, t := range types {
				out = append(out, fmt.Sprintf("videoplat_events_total{type=%q} %d",
					t, st.Events.ByType[string(t)]))
			}
			return out
		}},
	{"videoplat_events_dropped_total", "counter", "Ops journal events aged out of the bounded ring.", false,
		func(st *Stats) []string {
			return gauge1("videoplat_events_dropped_total", float64(st.Events.Dropped))
		}},
	{"videoplat_results_dropped_total", "counter", "Results dropped because the consumer lagged.", false,
		func(st *Stats) []string {
			return gauge1("videoplat_results_dropped_total", float64(st.DroppedResults))
		}},
	{"videoplat_ingest_batches_total", "counter", "Frame batches dispatched to the pipeline.", false,
		func(st *Stats) []string {
			return gauge1("videoplat_ingest_batches_total", float64(st.Ingest.Batches))
		}},
	{"videoplat_ingest_frames_ignored_total", "counter", "Frames dropped at ingest (unparseable or non-TCP/UDP).", false,
		func(st *Stats) []string {
			return gauge1("videoplat_ingest_frames_ignored_total", float64(st.Ingest.IgnoredFrames))
		}},
	{"videoplat_ingest_frames_filtered_total", "counter", "Decodable flows dropped at ingest by the port-443 video filter.", false,
		func(st *Stats) []string {
			return gauge1("videoplat_ingest_frames_filtered_total", float64(st.Ingest.FilteredFrames))
		}},
	{"videoplat_ingest_stalls_total", "counter", "Ingest submissions that blocked on a full shard inbox.", false,
		func(st *Stats) []string {
			return gauge1("videoplat_ingest_stalls_total", float64(st.Ingest.Stalls))
		}},
	{"videoplat_ingest_oversized_handshakes_total", "counter", "Flows abandoned because buffered handshake bytes exceeded the cap.", false,
		func(st *Stats) []string {
			return gauge1("videoplat_ingest_oversized_handshakes_total", float64(st.Ingest.OversizedHandshakes))
		}},
	{"videoplat_rollup_windows_sealed_total", "counter", "Rollup windows sealed and retired to the sink.", false,
		func(st *Stats) []string {
			return gauge1("videoplat_rollup_windows_sealed_total", float64(st.Rollup.Sealed))
		}},
	{"videoplat_telemetry_sink_errors_total", "counter", "Rollup sink writes that failed (every failure, not just the first).", false,
		func(st *Stats) []string {
			return gauge1("videoplat_telemetry_sink_errors_total", float64(st.Rollup.SinkErrors))
		}},
	{"videoplat_telemetry_store_windows", "gauge", "Sealed windows retained per store tier (tier label: raw or the bucket width in seconds).", false,
		func(st *Stats) []string {
			out := make([]string, 0, len(st.Rollup.Store.Tiers))
			for i, t := range st.Rollup.Store.Tiers {
				label := "raw"
				if i > 0 {
					label = strconv.FormatFloat(t.WidthSeconds, 'g', -1, 64)
				}
				out = append(out, fmt.Sprintf("videoplat_telemetry_store_windows{tier=%q} %d", label, t.Windows))
			}
			return out
		}},
	{"videoplat_telemetry_store_evicted_total", "counter", "Windows evicted from the store by retention.", false,
		func(st *Stats) []string {
			return []string{
				fmt.Sprintf("videoplat_telemetry_store_evicted_total{reason=\"count\"} %d", st.Rollup.Store.EvictedCount),
				fmt.Sprintf("videoplat_telemetry_store_evicted_total{reason=\"age\"} %d", st.Rollup.Store.EvictedAge),
			}
		}},
	{"videoplat_telemetry_store_compactions_total", "counter", "Downsampled store buckets sealed.", false,
		func(st *Stats) []string {
			return gauge1("videoplat_telemetry_store_compactions_total", float64(st.Rollup.Store.Compactions))
		}},
	{"videoplat_telemetry_store_loaded_windows", "gauge", "Windows reloaded from persistence at startup.", false,
		func(st *Stats) []string {
			return gauge1("videoplat_telemetry_store_loaded_windows", float64(st.Rollup.Store.LoadedWindows))
		}},
	{"videoplat_telemetry_store_persist_errors_total", "counter", "Failed writes to the store's persistence sink.", false,
		func(st *Stats) []string {
			return gauge1("videoplat_telemetry_store_persist_errors_total", float64(st.Rollup.Store.PersistErrors))
		}},
	{"videoplat_model_active_info", "gauge", "Active model bank version (value is always 1).", false,
		func(st *Stats) []string {
			return []string{fmt.Sprintf("videoplat_model_active_info{version=%q} 1", st.Models.ActiveVersion)}
		}},
	{"videoplat_model_swaps_total", "counter", "Bank hot-swaps applied to the pipeline.", false,
		func(st *Stats) []string {
			return gauge1("videoplat_model_swaps_total", float64(st.Models.Swaps))
		}},
	{"videoplat_model_retrains_total", "counter", "Candidate banks trained by the retrainer.", true,
		func(st *Stats) []string {
			if st.Models.Retrainer == nil {
				return nil
			}
			return gauge1("videoplat_model_retrains_total", float64(st.Models.Retrainer.Retrains))
		}},
	{"videoplat_model_promotions_total", "counter", "Candidates promoted after shadow evaluation.", true,
		func(st *Stats) []string {
			if st.Models.Retrainer == nil {
				return nil
			}
			return gauge1("videoplat_model_promotions_total", float64(st.Models.Retrainer.Promotions))
		}},
	{"videoplat_model_rejections_total", "counter", "Candidates rejected by the shadow gate.", true,
		func(st *Stats) []string {
			if st.Models.Retrainer == nil {
				return nil
			}
			return gauge1("videoplat_model_rejections_total", float64(st.Models.Retrainer.Rejections))
		}},
	{"videoplat_replay_done", "gauge", "1 once the replay source is exhausted.", false,
		func(st *Stats) []string {
			done := 0.0
			if st.Replay.Done {
				done = 1
			}
			return gauge1("videoplat_replay_done", done)
		}},
	{"videoplat_stage_latency_seconds", "gauge", "Per-stage pipeline latency quantiles since start (stage and quantile labels; quantile is 0.5, 0.9 or 0.99).", false,
		func(st *Stats) []string {
			var out []string
			for _, ls := range st.Latency {
				for _, q := range []struct {
					label string
					ms    float64
				}{{"0.5", ls.P50Ms}, {"0.9", ls.P90Ms}, {"0.99", ls.P99Ms}} {
					out = append(out, fmt.Sprintf("videoplat_stage_latency_seconds{stage=%q,quantile=%q} %g",
						ls.Stage, q.label, q.ms/1e3))
				}
			}
			return out
		}},
	{"videoplat_stage_latency_max_seconds", "gauge", "Per-stage maximum observed latency since start.", false,
		func(st *Stats) []string {
			var out []string
			for _, ls := range st.Latency {
				out = append(out, fmt.Sprintf("videoplat_stage_latency_max_seconds{stage=%q} %g",
					ls.Stage, ls.MaxMs/1e3))
			}
			return out
		}},
	{"videoplat_stage_latency_samples_total", "counter", "Latency samples recorded per pipeline stage.", false,
		func(st *Stats) []string {
			out := make([]string, 0, len(st.Latency))
			for _, ls := range st.Latency {
				out = append(out, fmt.Sprintf("videoplat_stage_latency_samples_total{stage=%q} %d",
					ls.Stage, ls.Count))
			}
			return out
		}},
	{"videoplat_shard_queue_depth", "gauge", "Live per-shard ingest inbox occupancy in batch messages.", false,
		func(st *Stats) []string {
			out := make([]string, 0, len(st.Ingest.QueueDepths))
			for i, d := range st.Ingest.QueueDepths {
				out = append(out, fmt.Sprintf("videoplat_shard_queue_depth{shard=\"%d\"} %d", i, d))
			}
			return out
		}},
	{"videoplat_shard_queue_capacity", "gauge", "Per-shard ingest inbox capacity in batch messages.", false,
		func(st *Stats) []string {
			return gauge1("videoplat_shard_queue_capacity", float64(st.Ingest.QueueCapacity))
		}},
	{"videoplat_results_buffered", "gauge", "Classified results waiting in the results channel.", false,
		func(st *Stats) []string {
			return gauge1("videoplat_results_buffered", float64(st.Ingest.ResultsBuffered))
		}},
	{"videoplat_results_capacity", "gauge", "Results channel capacity.", false,
		func(st *Stats) []string {
			return gauge1("videoplat_results_capacity", float64(st.Ingest.ResultsCapacity))
		}},
	{"videoplat_trace_spans_total", "counter", "Flow-lifecycle sampler activity (event label: offered, admitted or finished).", false,
		func(st *Stats) []string {
			return []string{
				fmt.Sprintf("videoplat_trace_spans_total{event=\"offered\"} %d", st.Trace.Offered),
				fmt.Sprintf("videoplat_trace_spans_total{event=\"admitted\"} %d", st.Trace.Admitted),
				fmt.Sprintf("videoplat_trace_spans_total{event=\"finished\"} %d", st.Trace.Finished),
			}
		}},
	{"videoplat_goroutines", "gauge", "Live goroutine count.", false,
		func(st *Stats) []string {
			return gauge1("videoplat_goroutines", float64(st.Runtime.Goroutines))
		}},
	{"videoplat_heap_alloc_bytes", "gauge", "Live heap bytes in use.", false,
		func(st *Stats) []string {
			return gauge1("videoplat_heap_alloc_bytes", float64(st.Runtime.HeapAllocBytes))
		}},
	{"videoplat_heap_objects", "gauge", "Live heap object count.", false,
		func(st *Stats) []string {
			return gauge1("videoplat_heap_objects", float64(st.Runtime.HeapObjects))
		}},
	{"videoplat_gc_cycles_total", "counter", "Completed garbage-collection cycles.", false,
		func(st *Stats) []string {
			return gauge1("videoplat_gc_cycles_total", float64(st.Runtime.NumGC))
		}},
	{"videoplat_gc_pause_seconds_total", "counter", "Cumulative stop-the-world GC pause time.", false,
		func(st *Stats) []string {
			return gauge1("videoplat_gc_pause_seconds_total", st.Runtime.PauseTotalMs/1e3)
		}},
	{"videoplat_uptime_seconds", "gauge", "Seconds since the daemon started.", false,
		func(st *Stats) []string {
			return gauge1("videoplat_uptime_seconds", st.UptimeSeconds)
		}},
	{"videoplat_build_info", "gauge", "Build identification (go_version, version, revision labels; value is always 1).", false,
		func(st *Stats) []string {
			return []string{fmt.Sprintf("videoplat_build_info{go_version=%q,version=%q,revision=%q} 1",
				st.Build.GoVersion, st.Build.Version, st.Build.VCSRevision)}
		}},
}

// MetricNames lists every videoplat_* series /metrics can emit, in
// exposition order — the source of truth the operator runbook is checked
// against. Series marked conditional in the catalog (the retrainer
// counters) appear here even when the running configuration omits them.
func MetricNames() []string {
	out := make([]string, len(metricsCatalog))
	for i, m := range metricsCatalog {
		out[i] = m.name
	}
	return out
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := s.Snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var b []byte
	for _, m := range metricsCatalog {
		lines := m.samples(&st)
		if len(lines) == 0 {
			continue // conditional series absent in this configuration
		}
		b = append(b, fmt.Sprintf("# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.typ)...)
		for _, l := range lines {
			b = append(b, l...)
			b = append(b, '\n')
		}
	}
	w.Write(b)
}
