package main

import (
	"fmt"
	"runtime"
	"time"

	"videoplat/internal/telemetry"
)

// result is one run of one workload: the driver's unit.
type result struct {
	Workload   string    `json:"workload"`
	Seed       uint64    `json:"seed"`
	Correct    bool      `json:"correct"`
	Attempted  int       `json:"attempted"`
	Failed     int       `json:"failed"`
	Problems   []string  `json:"problems,omitempty"`
	FramesHash string    `json:"frames_hash"`
	Metrics    metricSet `json:"metrics"`
}

func (r *result) absorb(o outcome) {
	r.Attempted += o.attempted
	r.Failed += o.failed
	r.Problems = append(r.Problems, o.problems...)
}

func (r *result) close() { r.Correct = r.Failed == 0 && r.Attempted > 0 }

// failedShare is failed over attempted operations; it must be 0.
func (r *result) failedShare() float64 { return float64(r.Failed) / float64(max(1, r.Attempted)) }

// setupRounds is how many times a run sets up, so setup_s is a median.
const setupRounds = 5

// endToEndRun measures one workload with tracing off: set-up, the timed
// phase, the oracle.
func endToEndRun(name string, seed uint64, seconds float64, sz sizes, rounds int) (*result, error) {
	y := newYardstick(sz.yardPasses)
	var st *setup
	var setups, rawSetups []float64
	before := y.sample()
	for i := 0; i < rounds; i++ {
		st = nil // the round before is garbage before the next one is timed
		runtime.GC()
		s, err := newSetup(name, seed, sz)
		if err != nil {
			return nil, err
		}
		st = s
		after := y.sample()
		rawSetups = append(rawSetups, s.totalS)
		setups = append(setups, s.totalS*yardRefNS/((before+after)/2))
		before = after
	}
	res := &result{Workload: name, Seed: seed, FramesHash: st.w.hash, Metrics: metricSet{}}
	m := res.Metrics
	heapBase := liveHeap()

	var run e2e
	if name == "daemon" {
		dr, err := runDaemon(st, planDaemon(st.w, seconds, sz, daemonReps), y, heapBase)
		if err != nil {
			return nil, err
		}
		run = dr.e2e
		dr.httpMetrics(m)
	} else {
		run = runSharded(st, passesFor(name, seconds, sz), y, heapBase)
	}
	res.absorb(run.outcome)
	setRates(m, run.reps, st.w.churns)
	m.set("live_heap_mb", float64(run.heapBytes)/1e6)
	m.setReps("setup_s", setups)
	m.setReps("raw.setup_s", rawSetups)
	res.close()
	return res, nil
}

// setRates records a timed phase's rates and costs: at the reference
// host's speed, as the clock gave them, and the host's speed between the two.
func setRates(m metricSet, reps []rep, churns bool) {
	m.setReps("pkts_per_s", series(reps, rep.pktsPerS))
	m.setReps("cpu_ns_per_pkt", series(reps, rep.cpuNSPerPkt))
	if churns {
		m.setReps("flows_per_s", series(reps, rep.flowsPerS))
	}
	m.setReps("host.speed", series(reps, rep.hostSpeed))
	m.setReps("raw.pkts_per_s", series(reps, rep.rawPktsPerS))
	m.setReps("raw.cpu_ns_per_pkt", series(reps, rep.rawCPUNSPerPkt))
}

// httpMetrics reports the serve phase as its one client saw it, the
// latencies at the reference host's speed.
func (dr *daemonRun) httpMetrics(m metricSet) {
	query := append(dr.client.latencies(0), dr.client.latencies(1)...)
	scrape := dr.client.latencies(2)
	us := func(ns []int64, p float64) float64 { return float64(percentileNS(ns, p)) / 1e3 * dr.serveSpeed }
	m.set("query_p50_us", us(query, 50))
	m.set("scrape_p50_us", us(scrape, 50))
	m.set("server.query_p85_us", us(query, 85))
	m.set("server.scrape_p75_us", us(scrape, 75))
	m.set("server.stats_p50_us", us(dr.client.latencies(3), 50))
	m.set("server.requests", float64(len(dr.client.replies)))
	var bytes, n float64
	for _, r := range dr.client.replies {
		if r.endpoint < 2 {
			bytes += float64(r.bytes)
			n++
		}
	}
	if n > 0 {
		m.set("server.response_bytes_query", bytes/n)
	}
}

// A traced run's parts that drive the program replay fixed shares of the
// timed phase's passes per repetition, so their counts repeat too; the
// parts that time a layer's functions alone take shares of the run's
// seconds. Together a run lands near its seconds.
const (
	passShareCounted = 1.0 // of a repetition's passes: the counted run
	passSharePlain   = 0.5 // each of the plain, instrumented and one-shard runs
	daemonTracedReps = 2
	shareSingle      = 0.06
	shareMicro       = 0.012  // per measurement; about twenty of them
	stagedPasses     = 5      // staged single-thread passes behind the layer budget
	threadedFrames   = 400000 // frames a threaded run replays at most: keeps the trace file a few megabytes
	threadedPairs    = 5      // alternating traced/untraced runs behind trace.overhead_share
)

// perLayerRun measures one workload's layers: the program's counters after
// a counted run, every layer's public functions timed on their own, the
// single-thread baseline, the staged and threaded traces, and the
// open-loop lag diagnostic. Every sub-run that drives the program closes
// its own oracle; the result sums them.
func perLayerRun(name string, seed uint64, seconds float64, sz sizes, outDir string) (*result, error) {
	st, err := newSetup(name, seed, sz)
	if err != nil {
		return nil, err
	}
	res := &result{Workload: name, Seed: seed, FramesHash: st.w.hash, Metrics: metricSet{}}
	m := res.Metrics
	part := func(share float64) time.Duration { return time.Duration(share * seconds * float64(time.Second)) }
	repPasses := passesFor(name, seconds, sz)
	if name == "daemon" {
		// The bare-Sharded parts replay the daemon's frames as churn would.
		repPasses = passesFor("churn", seconds, sz)
	}
	passes := func(share float64) int { return max(1, int(share*float64(repPasses)+0.5)) }

	m.set("raw.setup_s", st.totalS)
	m.set("setup.train_s", st.trainS)
	m.set("setup.render_s", st.renderS)
	m.set("setup.reference_s", st.referenceS)
	acc, abstain := st.ref.quality(st.w)
	m.set("quality.accuracy_classified", acc)
	m.set("quality.abstain_share", abstain)

	// Layer figures are as the clock gave them; only the end-to-end ones
	// this run also prints (flows_per_s, the HTTP medians) are at the
	// reference host's speed.
	y := newYardstick(sz.yardPasses)
	res.absorb(countedRun(st, passes(passShareCounted), m))
	before := y.sample()
	plain, o := plainRun(st, benchShards, passes(passSharePlain), nil)
	plain.yardNS = (before + y.sample()) / 2
	res.absorb(o)
	res.absorb(instrumentedRun(st, passes(passSharePlain), plain.rawPktsPerS(), m))
	one, o := plainRun(st, 1, passes(passSharePlain), nil)
	res.absorb(o)
	m.set("sharded.shards1_pkts_per_s", one.rawPktsPerS())
	base := singlePipeline(st, part(shareSingle), m)
	m.set("sharded.speedup_vs_single", plain.rawPktsPerS()/m["pipeline.single_pkts_per_s"].Value)
	m.set("sharded.cpu_vs_single", plain.rawCPUNSPerPkt()/m["pipeline.single_ns_per_pkt"].Value)

	// The store the telemetry layers are timed against: the daemon's own
	// after its run, a freshly filled one elsewhere.
	var fill *telemetry.Store
	if name == "daemon" {
		dr, err := runDaemon(st, planDaemon(st.w, seconds, sz, daemonTracedReps), y, 0)
		if err != nil {
			return nil, err
		}
		res.absorb(dr.outcome)
		dr.httpMetrics(m)
		dr.layerMetrics(m)
		setRates(m, dr.reps, true)
		fill = st.store
	} else {
		setRates(m, []rep{plain}, st.w.churns)
		fill = fillStore(st.ref, sz)
	}
	microLayers(st, fill, part(shareMicro), m)
	if name == "daemon" {
		m.set("server.query_http_overhead_us", m["query_p50_us"].Value-m["store.query_ns"].Value/1e3)
	}

	// The layer budget: stagedPasses staged passes, each held against the
	// baseline sampled on either side of it, so a host that slows down
	// slows both.
	staged := newRecorder(stagedPasses * stagedSpans(st.w))
	var single float64
	for i := 0; i < stagedPasses; i++ {
		before := base.sample(part(shareMicro / 2))
		stagedPass(st, fill, staged)
		single += (before + base.sample(part(shareMicro/2))) / 2 / stagedPasses
	}
	var budget int64
	self := staged.selfTimes()
	for _, layer := range budgetLayers {
		budget += self[layer]
	}
	perPkt := float64(budget) / float64(stagedPasses*len(st.w.frames))
	m.set("trace.budget_coverage", perPkt/single)
	m.set("trace.unattributed_ns_per_pkt", single-perPkt)

	// Tracing overhead: alternating untraced/traced runs of the same passes,
	// the median of the pairs' ratios. The spans of the last traced run are
	// the ones written out.
	n := max(1, min(passes(passSharePlain), threadedFrames/len(st.w.frames)))
	var ingest, consumer *recorder
	var overhead []float64
	for pair := 0; pair < threadedPairs; pair++ {
		ingest = newRecorder((n+1)*(len(st.w.first)/benchBatch+1) + 16)
		consumer = newRecorder(n*len(st.w.flows) + 16)
		var untraced, traced float64
		for side := 0; side < 2; side++ {
			if (pair+side)%2 == 0 {
				untraced, o = threadedRun(st, n, nil, nil)
			} else {
				traced, o = threadedRun(st, n, ingest, consumer)
			}
			res.absorb(o)
		}
		overhead = append(overhead, 1-traced/untraced)
	}
	m.set("trace.overhead_share", median(overhead))
	m.set("trace.spans", float64(len(staged.spans)+len(ingest.spans)+len(consumer.spans)))
	if err := writeTrace(outDir, name, staged, ingest, consumer); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}

	res.absorb(verdictLag(st, m))
	res.close()
	return res, nil
}

// layerMetrics reports what the daemon's own counters and the bench sink
// saw: seals, store occupancy, the stage histograms, shutdown.
func (dr *daemonRun) layerMetrics(m metricSet) {
	passes := float64(dr.passes)
	m.set("rollup.windows_sealed", float64(dr.tally.windows)/passes)
	m.set("rollup.late_flows", float64(dr.tally.late)/passes)
	if len(dr.store.Tiers) > 0 {
		m.set("store.windows_retained", float64(dr.store.Tiers[0].Windows))
	}
	m.set("store.evicted_windows", float64(dr.store.EvictedCount+dr.store.EvictedAge))
	m.set("store.compactions", float64(dr.store.Compactions))
	m.set("server.shutdown_ms", float64(dr.shutdown.Microseconds())/1e3)
	setStages(dr.stats.Latency, m)
}
