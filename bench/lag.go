package main

import (
	"time"

	"videoplat/internal/flowtable"
	"videoplat/internal/pipeline"
	"videoplat/internal/telemetry"
)

// The verdict-lag phase is open loop: frames are due on a fixed schedule
// whatever the program does, and a flow's lag runs from the due time of the
// frame that decides it (known from the reference pass) to its record's
// receipt on Results(). Diagnostic only: on a shared two-core host the
// percentiles follow goroutine wake-up latency and host stalls more than
// program work (README.md has the measured spread).
const (
	lagRate          = 60000 // frames per second
	lagResultsBuffer = 8192
)

// verdictLag replays pass 0 once at lagRate. A batch is handed over when
// its last frame is due, as a NIC ring would fill, so lag is never
// negative. Here a dropped result is a failed operation: the receiver does
// nothing but drain.
func verdictLag(st *setup, m metricSet) outcome {
	w, ref := st.w, st.ref
	due := func(frame int) time.Duration {
		return time.Duration(float64(frame) / lagRate * float64(time.Second))
	}
	start := time.Now().Add(20 * time.Millisecond)
	lags := make([]int64, 0, len(w.flows))
	chk := newChecker(ref)
	s, drained := startSharded(st, benchShards, chk,
		func(cfg *pipeline.Config) { cfg.ResultsBuffer = lagResultsBuffer },
		func(rec *pipeline.FlowRecord) {
			if id, ok := ref.index[rec.Key.Canonical()]; ok && ref.deciding[id] >= 0 {
				lags = append(lags, int64(time.Since(start)-due(int(ref.deciding[id]))))
			}
		})
	d := newDriver(w, s)
	var lateMax time.Duration
	for off := 0; off < len(d.first); off += benchBatch {
		batch := d.first[off:min(off+benchBatch, len(d.first))]
		at := start.Add(due(off + len(batch) - 1))
		if wait := time.Until(at); wait > 0 {
			time.Sleep(wait)
		}
		lateMax = max(lateMax, time.Since(at))
		s.HandlePacketBatch(batch)
	}
	o := d.finish(chk, drained)
	o.add(int(o.ingest.DroppedResults), "%d results dropped in the paced phase", o.ingest.DroppedResults)
	m.set("sharded.verdict_lag_p50_us", float64(percentileNS(lags, 50))/1e3)
	m.set("sharded.verdict_lag_p99_us", float64(percentileNS(lags, 99))/1e3)
	m.set("sharded.gen_late_max_us", float64(lateMax.Microseconds()))
	return o
}

// threadedRun feeds passes through the program under test the way the
// daemon wires it: evicted records cross a channel to one consumer
// goroutine that folds them into a telemetry.Rollup. With recorders, every
// HandlePacketBatch gets a root span on the ingest side and every
// Rollup.Add a span on the consumer side.
func threadedRun(st *setup, passes int, ingest, consumer *recorder) (pktsPerS float64, o outcome) {
	chk := newChecker(st.ref)
	evicted := make(chan *pipeline.FlowRecord, 1024) // the server's evictions buffer
	roll := telemetry.NewRollup(time.Minute, nil)
	folded := make(chan struct{})
	go func() {
		defer close(folded)
		for rec := range evicted {
			chk.observe(rec)
			if consumer == nil {
				roll.Add(rec)
				continue
			}
			id := consumer.begin("rollup.add", 0)
			roll.Add(rec)
			consumer.end(id)
		}
	}()
	s, drained := startSharded(st, benchShards, chk, func(cfg *pipeline.Config) {
		cfg.OnEvict = func(rec *pipeline.FlowRecord, _ flowtable.Reason) { evicted <- rec }
	}, nil)
	d := newDriver(st.w, s)
	d.rec = ingest
	d.warm()
	d.barrier()
	t0 := time.Now()
	for i := 0; i < passes; i++ {
		d.pass()
	}
	d.barrier()
	pktsPerS = float64(passes*len(d.pkts)) / time.Since(t0).Seconds()
	d.close(drained)
	close(evicted)
	<-folded
	return pktsPerS, d.check(chk)
}
