package main

import (
	"bytes"
	"io"
	"runtime"
	"syscall"
	"time"

	"videoplat/internal/features"
	"videoplat/internal/fingerprint"
	"videoplat/internal/flowtable"
	"videoplat/internal/obs"
	"videoplat/internal/packet"
	"videoplat/internal/pcap"
	"videoplat/internal/pipeline"
	"videoplat/internal/quicproto"
	"videoplat/internal/telemetry"
	"videoplat/internal/tlsproto"
)

// keySink keeps the compiler from discarding a flow-key computation.
var keySink packet.FlowKey

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// perUnit calls f, which does units units of work per call, until budget
// has elapsed, and returns the mean nanoseconds and heap allocations per
// unit. One untimed call warms caches and lazy set-up first.
func perUnit(budget time.Duration, units int, f func()) (ns, allocs float64) {
	if units == 0 {
		return 0, 0
	}
	f()
	m0, t0, n := mallocs(), time.Now(), 0
	for n == 0 || time.Since(t0) < budget {
		f()
		n++
	}
	wall := time.Since(t0)
	total := float64(n * units)
	return float64(wall.Nanoseconds()) / total, float64(mallocs()-m0) / total
}

// microLayers times every layer's public functions on their own, fed from
// the workload's frames and the reference's records. each is the budget of
// one measurement.
func microLayers(st *setup, fill *telemetry.Store, each time.Duration, m metricSet) {
	w := st.w

	// packet, pcap: decode and file read, per frame.
	var parser packet.Parser
	var parsed packet.Parsed
	ns, allocs := perUnit(each, len(w.frames), func() {
		for _, f := range w.frames {
			_ = parser.Parse(f.data, &parsed) // rendered frames always decode
		}
	})
	m.set("packet.parse_ns_per_pkt", ns)
	m.set("packet.parse_allocs_per_pkt", allocs)
	// The decode summarized into the canonical flow key: what it adds to a parse.
	withKey, _ := perUnit(each, len(w.frames), func() {
		for _, f := range w.frames {
			_ = parser.Parse(f.data, &parsed)
			k, _ := parsed.Flow()
			keySink = k.Canonical()
		}
	})
	m.set("packet.flow_key_ns_per_pkt", max(0, withKey-ns))

	sample := w.frames[:min(len(w.frames), 8192)]
	var file bytes.Buffer
	if pw, err := pcap.NewWriter(&file, 0); err == nil {
		for _, f := range sample {
			_ = pw.WritePacket(traceBase.Add(f.off), f.data) // a bytes.Buffer write cannot fail
		}
		ns, _ = perUnit(each, len(sample), func() {
			pr, err := pcap.NewReader(bytes.NewReader(file.Bytes()))
			for err == nil {
				_, err = pr.Next()
			}
			if err != io.EOF {
				panic("bench: pcap read-back of rendered frames failed: " + err.Error())
			}
		})
		m.set("pcap.read_ns_per_pkt", ns)
	}

	// tlsproto, quicproto: the wire parsers under handshake assembly.
	var records, initials [][]byte
	for i := range w.flows {
		for _, fr := range w.flows[i].client {
			if parser.Parse(fr, &parsed) != nil || len(parsed.Payload) == 0 {
				continue
			}
			if parsed.Has(packet.LayerTCP) {
				if _, err := tlsproto.ParseRecord(parsed.Payload); err == nil && len(records) < 2048 {
					records = append(records, parsed.Payload)
				}
			} else if quicproto.IsLongHeader(parsed.Payload) && len(initials) < 2048 {
				if _, err := quicproto.ParseInitial(parsed.Payload); err == nil {
					initials = append(initials, parsed.Payload)
				}
			}
		}
	}
	ns, _ = perUnit(each, len(records), func() {
		for _, r := range records {
			_, _ = tlsproto.ParseRecord(r) // parsed once above
		}
	})
	m.set("tlsproto.parse_ns_per_hello", ns)
	ns, _ = perUnit(each, len(initials), func() {
		for _, d := range initials {
			_, _ = quicproto.ParseInitial(d) // parsed once above
		}
	})
	m.set("quicproto.initial_ns_per_pkt", ns)

	// pipeline: handshake assembly per flow.
	ns, allocs = perUnit(each, len(w.flows), func() {
		for i := range w.flows {
			_, _ = pipeline.ExtractFrames(w.flows[i].client) // flows with no hello cost their frames too
		}
	})
	m.set("pipeline.assemble_ns_per_flow", ns)
	m.set("pipeline.assemble_allocs_per_flow", allocs)

	// features, ml, bank: encode, predict, and both together, per flow.
	hs := assemble(w, nil, 0)
	groups := group(hs)
	var esc features.EncodeScratch
	var rows []float64
	var proba [3][]float64
	var one []float64
	var csc pipeline.ClassifyScratch
	preds := make([]pipeline.Prediction, benchBatch)
	infos := make([]*features.HandshakeInfo, 0, benchBatch)
	type layerTime struct{ encode, encodeRef, batch, single, ref, classifyBatch, classify time.Duration }
	var total layerTime
	flows := 0
	timeIt := func(d *time.Duration, f func()) {
		t0 := time.Now()
		f()
		*d += time.Since(t0)
	}
	deadline := time.Now().Add(5 * each)
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		for _, g := range groups {
			models := objectives(st.bank, g[0].prov, g[0].tr)
			enc := models[0].Compiled()
			if enc == nil || models[0].CompiledForest() == nil {
				continue
			}
			stride := enc.Width()
			for off := 0; off < len(g); off += benchBatch {
				batch := g[off:min(off+benchBatch, len(g))]
				infos = infos[:0]
				for _, h := range batch {
					infos = append(infos, h.info)
				}
				timeIt(&total.encode, func() { rows = encodeRows(rows, enc, batch, &esc) })
				timeIt(&total.encodeRef, func() {
					for _, h := range batch {
						models[0].Encoder.Transform(features.Extract(h.info))
					}
				})
				timeIt(&total.batch, func() {
					for oi, mo := range models {
						proba[oi] = mo.CompiledForest().PredictBatchInto(rows, stride, proba[oi])
					}
				})
				timeIt(&total.single, func() {
					for i := range batch {
						for _, mo := range models {
							mo.CompiledForest().PredictInto(rows[i*stride:(i+1)*stride], &one)
						}
					}
				})
				timeIt(&total.ref, func() {
					for i := range batch {
						for _, mo := range models {
							mo.Forest.PredictInto(rows[i*stride:(i+1)*stride], &one)
						}
					}
				})
				timeIt(&total.classifyBatch, func() {
					_ = st.bank.ClassifyBatch(g[0].prov, g[0].tr, infos, &csc, preds) // the models exist: objectives found them
				})
				timeIt(&total.classify, func() {
					for _, info := range infos {
						_, _ = st.bank.ClassifyHandshake(g[0].prov, g[0].tr, info, &csc)
					}
				})
				if round > 0 {
					flows += len(batch)
				}
			}
		}
		if round == 0 {
			total = layerTime{} // the first round warmed scratch buffers and lazy indexes
		}
	}
	if flows > 0 {
		per := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / float64(flows) }
		m.set("features.encode_ns_per_flow", per(total.encode))
		m.set("features.encode_ref_ns_per_flow", per(total.encodeRef))
		m.set("ml.predict_batch_ns_per_flow", per(total.batch))
		m.set("ml.predict_ns_per_flow", per(total.single))
		m.set("ml.predict_ref_ns_per_flow", per(total.ref))
		m.set("bank.classify_batch_ns_per_flow", per(total.classifyBatch))
		m.set("bank.classify_ns_per_flow", per(total.classify))
	}
	m.set("bank.compiled_bytes", float64(st.bank.CompiledFootprint().Bytes))

	// The degraded path classifies what a 0-RTT flow shows before any hello:
	// transport attributes only.
	partial := &features.HandshakeInfo{QUIC: true, InitPacketSize: 1252, TTL: 62, TCPWScale: -1}
	ns, _ = perUnit(each, 1, func() {
		_, _ = st.bank.ClassifyHandshake(fingerprint.YouTube, fingerprint.QUIC, partial, &csc) // YouTube/QUIC models always train
	})
	m.set("bank.classify_partial_ns_per_flow", ns)

	// flowtable: put, touch, re-key and expire, each timed over the pass.
	var put, touch, rekey, expire time.Duration
	passes := 0
	deadline = time.Now().Add(2 * each)
	for time.Now().Before(deadline) || passes == 0 {
		table := flowtable.New[int32](flowtable.Config{MaxFlows: benchMaxFlows, IdleTimeout: benchIdleTimeout},
			func(packet.FlowKey, int32, flowtable.Reason) {})
		timeIt(&put, func() {
			for i := range w.flows {
				table.Put(w.flows[i].key, int32(i), traceBase)
			}
		})
		timeIt(&touch, func() {
			for _, f := range w.frames {
				table.Touch(w.flows[f.flow].key, traceBase.Add(f.off))
			}
		})
		timeIt(&rekey, func() {
			for i := range w.flows {
				moved := w.flows[i].key
				moved.Proto = 0xfd // a key no rendered flow can have
				table.Rekey(w.flows[i].key, moved)
			}
		})
		timeIt(&expire, func() { table.ExpireIdle(traceBase.Add(churnAdvance)) })
		passes++
	}
	nf, np := float64(passes*len(w.flows)), float64(passes*len(w.frames))
	m.set("flowtable.put_ns", float64(put.Nanoseconds())/nf)
	m.set("flowtable.touch_ns", float64(touch.Nanoseconds())/np)
	m.set("flowtable.rekey_ns", float64(rekey.Nanoseconds())/nf)
	m.set("flowtable.expire_ns_per_flow", float64(expire.Nanoseconds())/nf)

	// rollup, store: fold, seal, accept a window, answer a query.
	recs := st.ref.records
	ns, _ = perUnit(each, len(recs), func() {
		roll := telemetry.NewRollup(time.Hour, nil) // one window: no add seals
		for _, r := range recs {
			roll.Add(r)
		}
	})
	m.set("rollup.add_ns_per_flow", ns)
	addNS := ns

	// Sealing: the same records cut into windows of 256, each add that
	// crosses a boundary seals. What the adds alone cost is subtracted.
	const perWindow = 256
	keep := &keepSink{}
	minute := make([]pipeline.FlowRecord, len(recs))
	for i, r := range recs {
		minute[i] = *r
		d := r.Duration()
		minute[i].LastSeen = traceBase.Add(time.Duration(i/perWindow)*time.Minute + time.Duration(i%perWindow)*time.Millisecond)
		minute[i].FirstSeen = minute[i].LastSeen.Add(-d)
	}
	windows := (len(minute) + perWindow - 1) / perWindow
	ns, _ = perUnit(each, windows, func() {
		keep.windows = keep.windows[:0]
		roll := telemetry.NewRollup(time.Minute, keep)
		for i := range minute {
			roll.Add(&minute[i])
		}
		roll.Flush()
	})
	m.set("rollup.seal_ns_per_window", max(0, ns-addNS*float64(len(minute))/float64(windows)))

	sealed := keep.windows
	ns, _ = perUnit(each, len(sealed), func() {
		store := telemetry.NewStore(telemetry.StoreConfig{Tiers: []time.Duration{10 * time.Minute, 60 * time.Minute}})
		for _, win := range sealed {
			_ = store.WriteWindow(win) // no Persist sink, so no error path
		}
	})
	m.set("store.write_ns_per_window", ns)

	m.set("store.query_ns", storeQueryNS(fill, each))

	// obs: what one latency sample costs.
	o := obs.NewPipelineObserver()
	ns, _ = perUnit(each, 1024, func() {
		for i := 0; i < 1024; i++ {
			o.Record(obs.StageDecode, time.Duration(200+i))
		}
	})
	m.set("obs.record_ns", ns)
}

// keepSink retains the windows a rollup seals. The rollup allocates a fresh
// window per seal, so keeping the pointers is safe.
type keepSink struct{ windows []*telemetry.Window }

func (k *keepSink) WriteWindow(w *telemetry.Window) error {
	k.windows = append(k.windows, w)
	return nil
}

// storeQueryNS times the two queries the serve phase asks over HTTP, in
// process: the mean of a 10-minute by-platform and a raw-step by-provider
// query over the whole retained range.
func storeQueryNS(store *telemetry.Store, budget time.Duration) float64 {
	ns, _ := perUnit(budget, 2, func() {
		if _, err := store.Query(time.Time{}, time.Time{}, 10*time.Minute, telemetry.GroupPlatform); err != nil {
			panic("bench: store query: " + err.Error()) // only an unknown group-by can fail
		}
		if _, err := store.Query(time.Time{}, time.Time{}, 0, telemetry.GroupProvider); err != nil {
			panic("bench: store query: " + err.Error())
		}
	})
	return ns
}

// probe is the single-threaded baseline of the same job: one
// pipeline.Pipeline, HandlePacket per frame, the same passes.
type probe struct {
	w     *workload
	p     *pipeline.Pipeline
	shift time.Duration
}

func newProbe(st *setup) *probe {
	b := &probe{w: st.w, p: pipeline.NewWithConfig(st.bank, pipelineConfig(st.w, nil))}
	for _, f := range st.w.first {
		_, _ = b.p.HandlePacket(traceBase.Add(f.off), f.data) // the reference pass proved these frames classify without error
	}
	return b
}

// pass replays one steady pass, the trace clock advanced past the last one.
func (b *probe) pass() {
	b.shift += b.w.advance
	for _, f := range b.w.frames {
		_, _ = b.p.HandlePacket(traceBase.Add(b.shift+f.off), f.data)
	}
}

// sample runs whole passes for about budget and returns nanoseconds per packet.
func (b *probe) sample(budget time.Duration) float64 {
	n, t0 := 0, time.Now()
	for n == 0 || time.Since(t0) < budget {
		b.pass()
		n++
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(n*len(b.w.frames))
}

// singlePipeline measures the single-threaded baseline on its own, and
// weighs a tracked flow: the heap pass 0 leaves live, over its flows. It
// returns the warm baseline for later sampling.
func singlePipeline(st *setup, budget time.Duration, m metricSet) *probe {
	before := liveHeap()
	base := newProbe(st)
	m.set("flowtable.bytes_per_flow", float64(int64(liveHeap())-int64(before))/float64(len(st.w.flows)))
	ns, allocs := perUnit(budget, len(st.w.frames), base.pass)
	m.set("pipeline.single_ns_per_pkt", ns)
	m.set("pipeline.single_pkts_per_s", 1e9/ns)
	m.set("pipeline.single_allocs_per_pkt", allocs)
	return base
}

// threadCPU is the calling thread's CPU time; meaningful on a goroutine
// locked to its thread.
func threadCPU() time.Duration {
	const rusageThread = 1 // RUSAGE_THREAD (Linux)
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// countedRun is the program under test run as in the timed phase, for its
// counts: ingest-thread CPU, queue depths, stalls, drops, flow-table
// counters, allocations and collections. The ingest goroutine is locked to
// its thread so the thread's CPU time is the ingest layer's alone.
func countedRun(st *setup, passes int, m metricSet) outcome {
	chk := newChecker(st.ref)
	s, drained := startSharded(st, benchShards, chk, nil, nil)
	d := newDriver(st.w, s)
	d.warm()
	d.barrier()

	// Queue depths are sampled every 2 ms beside the run; a tighter loop
	// would take a core from the three goroutines being measured.
	var depthSum, depthMax, samples int
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				for _, q := range s.QueueDepths() {
					depthSum += q
					depthMax = max(depthMax, q)
					samples++
				}
			}
		}
	}()

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	runtime.LockOSThread()
	c0, t0 := threadCPU(), time.Now()
	for i := 0; i < passes; i++ {
		d.pass()
	}
	ingestCPU := threadCPU() - c0
	runtime.UnlockOSThread()
	t1 := time.Now()
	d.barrier()
	drain := time.Since(t1)
	r := rep{wall: time.Since(t0), frames: passes * len(d.pkts)}
	close(stop)
	<-sampled
	runtime.ReadMemStats(&ms1)

	o := d.finish(chk, drained)
	total := float64(1 + d.passes)
	m.set("sharded.ingest_ns_per_pkt", float64(ingestCPU.Nanoseconds())/float64(r.frames))
	m.set("sharded.ingest_busy_share", float64(ingestCPU)/float64(r.wall-drain))
	m.set("sharded.drain_ms", float64(drain.Microseconds())/1e3)
	m.set("sharded.stalls", float64(o.ingest.Stalls))
	m.set("sharded.dropped_results", float64(o.ingest.DroppedResults))
	m.set("sharded.ignored", float64(o.ingest.Ignored))
	m.set("sharded.filtered", float64(o.ingest.Filtered))
	if samples > 0 {
		m.set("sharded.queue_depth_mean", float64(depthSum)/float64(samples))
		m.set("sharded.queue_depth_max", float64(depthMax))
	}
	// Counts that repeat exactly are given per pass, so they read the same
	// at any --seconds.
	m.set("sharded.migrations", float64(o.ingest.Migrations)/total)
	m.set("sharded.early_classified", float64(o.ingest.EarlyClassified)/total)
	perPass := total
	if !st.w.churns {
		perPass = 1 // persisting flows are inserted once
	}
	m.set("flowtable.inserted", float64(o.table.Inserted)/perPass)
	m.set("flowtable.evicted_idle", float64(o.table.EvictedIdle)/max(1, perPass-1))
	m.set("flowtable.evicted_cap", float64(o.table.EvictedCap))
	m.set("flowtable.rekeyed", float64(o.table.Rekeyed)/perPass)
	m.set("runtime.allocs_per_pkt", float64(ms1.Mallocs-ms0.Mallocs)/float64(r.frames))
	m.set("runtime.gc_cycles", float64(ms1.NumGC-ms0.NumGC))
	m.set("runtime.gc_pause_total_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
	return o
}

// plainRun is one closed-loop repetition of the program under test with the
// given shard count and Config changes.
func plainRun(st *setup, shards int, passes int, mod func(*pipeline.Config)) (rep, outcome) {
	chk := newChecker(st.ref)
	s, drained := startSharded(st, shards, chk, mod, nil)
	d := newDriver(st.w, s)
	d.warm()
	d.barrier()
	r := d.timed(passes)
	return r, d.finish(chk, drained)
}

// instrumentedRun attaches an Observer and a Tracer at vpserve's defaults
// to the bare Sharded and reports what they cost and what they saw.
func instrumentedRun(st *setup, passes int, plainPktsPerS float64, m metricSet) outcome {
	observer := obs.NewPipelineObserver()
	r, o := plainRun(st, benchShards, passes, func(cfg *pipeline.Config) {
		cfg.Observer = observer
		cfg.Tracer = obs.NewTracer(obs.TracerConfig{})
	})
	m.set("obs.instrumented_pkts_ratio", r.rawPktsPerS()/plainPktsPerS)
	setStages(observer.StageStats(), m)
	return o
}

// setStages copies the program's own stage histograms into the metric set.
func setStages(stats []obs.StageStats, m metricSet) {
	for _, s := range stats {
		switch s.Stage {
		case obs.StageDecode.String():
			m.set("obs.stage_decode_mean_ns", s.MeanMs*1e6)
		case obs.StageQueueWait.String():
			m.set("obs.stage_queue_wait_p50_ns", s.P50Ms*1e6)
		case obs.StageAssembly.String():
			m.set("obs.stage_assembly_mean_ns", s.MeanMs*1e6)
		case obs.StageClassify.String():
			m.set("obs.stage_classify_mean_ns", s.MeanMs*1e6)
		}
	}
}
