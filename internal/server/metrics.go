package server

import (
	"fmt"
	"net/http"
	"strconv"

	"videoplat/internal/obs"
	"videoplat/internal/pipeline"
)

// metricDef is one /metrics series: its name and Prometheus metadata, stated
// once, plus a sampler producing the series' samples for a stats snapshot.
// handleMetrics prints the name in front of every sample, so a row cannot
// declare one series and emit another, and the documentation drift test
// (docs_test.go, against docs/OPERATIONS.md) reads the same table, so a
// series cannot be added to the endpoint, or change type, without it seeing.
// A sampler that returns no samples (the retrainer counters without
// -auto-retrain) drops the series, HELP and TYPE lines included, from the
// exposition.
type metricDef struct {
	name, typ, help string
	samples         func(st *Stats) []sample
}

// sample is one line of a series: its label set — empty, or `{k="v",…}` —
// and its value as printed.
type sample struct{ labels, value string }

// num is one sample of a real-valued series, printed the way %g prints it.
func num(labels string, v float64) sample {
	return sample{labels, strconv.FormatFloat(v, 'g', -1, 64)}
}

// count is one labelled sample of an integer series, printed in full.
func count(labels string, n uint64) sample {
	return sample{labels, strconv.FormatUint(n, 10)}
}

// value is the single unlabelled sample of a plain gauge or counter.
func value(v float64) []sample { return []sample{num("", v)} }

var metricsCatalog = []metricDef{
	{"videoplat_replay_packets_total", "counter", "Frames fed to the pipeline.",
		func(st *Stats) []sample { return value(float64(st.Replay.Packets)) }},
	{"videoplat_replay_bytes_total", "counter", "Frame bytes fed to the pipeline.",
		func(st *Stats) []sample { return value(float64(st.Replay.Bytes)) }},
	{"videoplat_flows_active", "gauge", "Flows currently tracked across shards.",
		func(st *Stats) []sample { return value(float64(st.FlowTable.Active)) }},
	{"videoplat_flows_inserted_total", "counter", "Flows ever inserted into the tables.",
		func(st *Stats) []sample { return value(float64(st.FlowTable.Inserted)) }},
	{"videoplat_flows_evicted_total", "counter", "Flows evicted from the tables.",
		func(st *Stats) []sample {
			return []sample{
				count(`{reason="idle"}`, st.FlowTable.EvictedIdle),
				count(`{reason="cap"}`, st.FlowTable.EvictedCap),
				count(`{reason="drain"}`, st.FlowTable.EvictedDrain),
			}
		}},
	{"videoplat_flows_rekeyed_total", "counter", "Flows re-keyed in place by QUIC connection migration.",
		func(st *Stats) []sample { return value(float64(st.FlowTable.Rekeyed)) }},
	{"videoplat_flows_early_classified_total", "counter", "Flows classified from partial handshake evidence (ECH or 0-RTT).",
		func(st *Stats) []sample { return value(float64(st.Ingest.EarlyClassified)) }},
	{"videoplat_flow_verdicts_total", "counter", "Flows by terminal verdict, counted when decided (verdict label: classified, abstained, no-handshake, …).",
		func(st *Stats) []sample {
			var out []sample
			for _, name := range pipeline.VerdictNames() {
				out = append(out, count(fmt.Sprintf("{verdict=%q}", name), st.FlowVerdicts[name]))
			}
			return out
		}},
	{"videoplat_events_total", "counter", "Ops journal events recorded by type.",
		func(st *Stats) []sample {
			var out []sample
			for _, t := range obs.EventTypes() {
				out = append(out, count(fmt.Sprintf("{type=%q}", t), st.Events.ByType[string(t)]))
			}
			return out
		}},
	{"videoplat_events_dropped_total", "counter", "Ops journal events aged out of the bounded ring.",
		func(st *Stats) []sample { return value(float64(st.Events.Dropped)) }},
	{"videoplat_ingest_batches_total", "counter", "Frame batches dispatched to the pipeline.",
		func(st *Stats) []sample { return value(float64(st.Ingest.Batches)) }},
	{"videoplat_ingest_frames_ignored_total", "counter", "Frames dropped at ingest (malformed, not TCP/UDP, or a non-first IP fragment).",
		func(st *Stats) []sample { return value(float64(st.Ingest.IgnoredFrames)) }},
	{"videoplat_ingest_frames_filtered_total", "counter", "Decodable flows dropped at ingest by the port-443 video filter.",
		func(st *Stats) []sample { return value(float64(st.Ingest.FilteredFrames)) }},
	{"videoplat_ingest_stalls_total", "counter", "Ingest submissions that blocked on a full shard inbox.",
		func(st *Stats) []sample { return value(float64(st.Ingest.Stalls)) }},
	{"videoplat_rollup_windows_sealed_total", "counter", "Rollup windows sealed and retired to the sink.",
		func(st *Stats) []sample { return value(float64(st.Rollup.Sealed)) }},
	{"videoplat_telemetry_sink_errors_total", "counter", "Rollup sink writes that failed (every failure, not just the first).",
		func(st *Stats) []sample { return value(float64(st.Rollup.SinkErrors)) }},
	{"videoplat_telemetry_store_windows", "gauge", "Sealed windows retained per store tier (tier label: raw or the bucket width in seconds).",
		func(st *Stats) []sample {
			var out []sample
			for i, t := range st.Rollup.Store.Tiers {
				label := "raw"
				if i > 0 {
					label = strconv.FormatFloat(t.WidthSeconds, 'g', -1, 64)
				}
				out = append(out, count(fmt.Sprintf("{tier=%q}", label), uint64(t.Windows)))
			}
			return out
		}},
	{"videoplat_telemetry_store_evicted_total", "counter", "Windows evicted from the store by retention.",
		func(st *Stats) []sample {
			return []sample{
				count(`{reason="count"}`, st.Rollup.Store.EvictedCount),
				count(`{reason="age"}`, st.Rollup.Store.EvictedAge),
			}
		}},
	{"videoplat_telemetry_store_compactions_total", "counter", "Downsampled store buckets sealed.",
		func(st *Stats) []sample { return value(float64(st.Rollup.Store.Compactions)) }},
	{"videoplat_telemetry_store_loaded_windows", "gauge", "Windows reloaded from persistence at startup.",
		func(st *Stats) []sample { return value(float64(st.Rollup.Store.LoadedWindows)) }},
	{"videoplat_telemetry_store_truncated_tail_bytes", "gauge", "Bytes of a torn final archive line dropped at startup.",
		func(st *Stats) []sample { return value(float64(st.Rollup.Store.TruncatedTailBytes)) }},
	{"videoplat_model_active_info", "gauge", "Active model bank version (value is always 1).",
		func(st *Stats) []sample {
			return []sample{count(fmt.Sprintf("{version=%q}", st.Models.ActiveVersion), 1)}
		}},
	{"videoplat_model_swaps_total", "counter", "Bank hot-swaps applied to the pipeline.",
		func(st *Stats) []sample { return value(float64(st.Models.Swaps)) }},
	{"videoplat_model_retrains_total", "counter", "Candidate banks trained by the retrainer.",
		func(st *Stats) []sample {
			if r := st.Models.Retrainer; r != nil {
				return value(float64(r.Retrains))
			}
			return nil
		}},
	{"videoplat_model_promotions_total", "counter", "Candidates promoted after shadow evaluation.",
		func(st *Stats) []sample {
			if r := st.Models.Retrainer; r != nil {
				return value(float64(r.Promotions))
			}
			return nil
		}},
	{"videoplat_model_rejections_total", "counter", "Candidates rejected by the shadow gate.",
		func(st *Stats) []sample {
			if r := st.Models.Retrainer; r != nil {
				return value(float64(r.Rejections))
			}
			return nil
		}},
	{"videoplat_replay_done", "gauge", "1 once the replay source is exhausted.",
		func(st *Stats) []sample {
			if st.Replay.Done {
				return value(1)
			}
			return value(0)
		}},
	{"videoplat_stage_latency_seconds", "gauge", "Per-stage pipeline latency quantiles since start (stage and quantile labels; quantile is 0.5, 0.9 or 0.99).",
		func(st *Stats) []sample {
			var out []sample
			for _, ls := range st.Latency {
				for _, q := range []struct {
					label string
					ms    float64
				}{{"0.5", ls.P50Ms}, {"0.9", ls.P90Ms}, {"0.99", ls.P99Ms}} {
					out = append(out, num(fmt.Sprintf("{stage=%q,quantile=%q}", ls.Stage, q.label), q.ms/1e3))
				}
			}
			return out
		}},
	{"videoplat_stage_latency_max_seconds", "gauge", "Per-stage maximum observed latency since start.",
		func(st *Stats) []sample {
			var out []sample
			for _, ls := range st.Latency {
				out = append(out, num(fmt.Sprintf("{stage=%q}", ls.Stage), ls.MaxMs/1e3))
			}
			return out
		}},
	{"videoplat_stage_latency_samples_total", "counter", "Latency samples recorded per pipeline stage.",
		func(st *Stats) []sample {
			var out []sample
			for _, ls := range st.Latency {
				out = append(out, count(fmt.Sprintf("{stage=%q}", ls.Stage), ls.Count))
			}
			return out
		}},
	{"videoplat_shard_queue_depth", "gauge", "Live per-shard ingest inbox occupancy in batch messages.",
		func(st *Stats) []sample {
			var out []sample
			for i, d := range st.Ingest.QueueDepths {
				out = append(out, count(fmt.Sprintf(`{shard="%d"}`, i), uint64(d)))
			}
			return out
		}},
	{"videoplat_shard_queue_capacity", "gauge", "Per-shard ingest inbox capacity in batch messages.",
		func(st *Stats) []sample { return value(float64(st.Ingest.QueueCapacity)) }},
	{"videoplat_trace_spans_total", "counter", "Flow-lifecycle sampler activity (event label: offered, admitted or finished).",
		func(st *Stats) []sample {
			return []sample{
				count(`{event="offered"}`, st.Trace.Offered),
				count(`{event="admitted"}`, st.Trace.Admitted),
				count(`{event="finished"}`, st.Trace.Finished),
			}
		}},
	{"videoplat_goroutines", "gauge", "Live goroutine count.",
		func(st *Stats) []sample { return value(float64(st.Runtime.Goroutines)) }},
	{"videoplat_heap_alloc_bytes", "gauge", "Live heap bytes in use.",
		func(st *Stats) []sample { return value(float64(st.Runtime.HeapAllocBytes)) }},
	{"videoplat_heap_objects", "gauge", "Live heap object count.",
		func(st *Stats) []sample { return value(float64(st.Runtime.HeapObjects)) }},
	{"videoplat_gc_cycles_total", "counter", "Completed garbage-collection cycles.",
		func(st *Stats) []sample { return value(float64(st.Runtime.NumGC)) }},
	{"videoplat_gc_pause_seconds_total", "counter", "Cumulative stop-the-world GC pause time.",
		func(st *Stats) []sample { return value(st.Runtime.PauseTotalMs / 1e3) }},
	{"videoplat_uptime_seconds", "gauge", "Seconds since the daemon started.",
		func(st *Stats) []sample { return value(st.UptimeSeconds) }},
	{"videoplat_build_info", "gauge", "Build identification (go_version, version, revision labels; value is always 1).",
		func(st *Stats) []sample {
			return []sample{count(fmt.Sprintf("{go_version=%q,version=%q,revision=%q}",
				st.Build.GoVersion, st.Build.Version, st.Build.VCSRevision), 1)}
		}},
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	st := s.Snapshot()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	var b []byte
	for _, m := range metricsCatalog {
		samples := m.samples(&st)
		if len(samples) == 0 {
			continue
		}
		b = fmt.Appendf(b, "# HELP %s %s\n# TYPE %s %s\n", m.name, m.help, m.name, m.typ)
		for _, sm := range samples {
			b = fmt.Appendf(b, "%s%s %s\n", m.name, sm.labels, sm.value)
		}
	}
	w.Write(b)
}
