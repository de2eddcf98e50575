package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"

	"videoplat/internal/fingerprint"
	"videoplat/internal/flowtable"
	"videoplat/internal/ml"
	"videoplat/internal/pipeline"
	"videoplat/internal/telemetry"
	"videoplat/internal/tracegen"
)

// repetitions is how many equal parts a bare-Sharded timed phase is cut
// into (the daemon's replay phase has daemonReps); every end-to-end figure
// is the median over them.
const repetitions = 10

// passesFor scales a workload's frozen passes per repetition to the seconds
// a run was given; sizes other than the full ones (tests, -quick) replay two.
func passesFor(name string, seconds float64, sz sizes) int {
	wd, ok := findWorkload(name)
	if !ok || sz != fullSizes {
		return 2
	}
	return max(1, int(float64(wd.Passes)*seconds/runSeconds+0.5))
}

// setup is everything a run needs before the program under test starts:
// the trained bank, the rendered workload and the reference pass.
type setup struct {
	bank  *pipeline.Bank
	w     *workload
	ref   *reference
	store *telemetry.Store // daemon only: the pre-filled window store

	trainS, renderS, referenceS, totalS float64
}

// trainBank trains the bench bank: LabDataset(scale 0.04) and a
// 15-tree forest, the same as trainedBank in the root bench_test.go. The
// training seed is fixed — the workload seed drives rendering only.
func trainBank() (*pipeline.Bank, error) {
	ds, err := tracegen.New(1).LabDataset(0.04, fingerprint.Options{})
	if err != nil {
		return nil, fmt.Errorf("lab dataset: %w", err)
	}
	bank, err := pipeline.TrainBank(ds, pipeline.TrainConfig{
		Forest: ml.ForestConfig{NumTrees: 15, MaxDepth: 20, MaxFeatures: 34, Seed: 1}})
	if err != nil {
		return nil, fmt.Errorf("training bank: %w", err)
	}
	return bank, nil
}

func newSetup(name string, seed uint64, sz sizes) (*setup, error) {
	t0 := time.Now()
	bank, err := trainBank()
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	w, err := render(name, seed, sz)
	if err != nil {
		return nil, err
	}
	t2 := time.Now()
	ref, err := buildReference(bank, w)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}
	s := &setup{bank: bank, w: w, ref: ref}
	if name == "daemon" {
		s.store = fillStore(ref, sz)
	}
	t3 := time.Now()
	s.trainS, s.renderS, s.referenceS = t1.Sub(t0).Seconds(), t2.Sub(t1).Seconds(), t3.Sub(t2).Seconds()
	s.totalS = t3.Sub(t0).Seconds()
	return s, nil
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap is the heap still reachable after a full collection. Two cycles,
// so sync.Pool victims and finalizer-held objects are gone too.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// rep is one repetition of a timed phase.
type rep struct {
	wall, cpu time.Duration
	frames    int
	flows     int // flows finalized (churning workloads)
	// yardNS is what the yardstick paid per frame just before and just
	// after this repetition (the mean of the two samples).
	yardNS float64
}

// hostSpeed is how fast the host ran around the repetition, as a share of
// the quiet reference host: the yardstick's reference time over its time
// now. At 0.8 everything took 1/0.8 as long as it would have there.
func (r rep) hostSpeed() float64 { return yardRefNS / r.yardNS }

// The gated rates and costs are stated at the reference host's speed; the
// raw ones are what the clock said.
func (r rep) rawPktsPerS() float64    { return float64(r.frames) / r.wall.Seconds() }
func (r rep) rawCPUNSPerPkt() float64 { return float64(r.cpu.Nanoseconds()) / float64(r.frames) }
func (r rep) pktsPerS() float64       { return r.rawPktsPerS() / r.hostSpeed() }
func (r rep) flowsPerS() float64      { return float64(r.flows) / r.wall.Seconds() / r.hostSpeed() }
func (r rep) cpuNSPerPkt() float64    { return r.rawCPUNSPerPkt() * r.hostSpeed() }

func series(reps []rep, f func(rep) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

// driver feeds a workload's passes into a Sharded from the single ingest
// goroutine, which is also the load generator: the loop is closed, a full
// shard inbox blocks it.
type driver struct {
	w      *workload
	s      *pipeline.Sharded
	first  []pipeline.IngestPacket
	pkts   []pipeline.IngestPacket
	passes int       // passes of w.frames fed so far, the warm pass not counted
	rec    *recorder // when set, a root span wraps every HandlePacketBatch
}

func newDriver(w *workload, s *pipeline.Sharded) *driver {
	d := &driver{w: w, s: s, first: passPackets(w.first)}
	d.pkts = d.first
	if !w.churns {
		d.pkts = passPackets(w.frames)
	}
	return d
}

// feed hands pkts over in batches of benchBatch, first moving each batch's
// timestamps shift further along the trace clock.
func (d *driver) feed(pkts []pipeline.IngestPacket, shift time.Duration) {
	for off := 0; off < len(pkts); off += benchBatch {
		batch := pkts[off:min(off+benchBatch, len(pkts))]
		if shift != 0 {
			for i := range batch {
				batch[i].TS = batch[i].TS.Add(shift)
			}
		}
		if d.rec == nil {
			d.s.HandlePacketBatch(batch)
			continue
		}
		id := d.rec.begin("sharded.handle_packet_batch", 0)
		d.s.HandlePacketBatch(batch)
		d.rec.end(id)
	}
}

// warm feeds pass 0: it fills the pools, builds the bank's lazy serving
// index and, for stream, classifies every flow. Never timed.
func (d *driver) warm() { d.feed(d.first, 0) }

// pass feeds one more pass, the trace clock advanced past the last one.
func (d *driver) pass() {
	d.feed(d.pkts, d.w.advance)
	d.passes++
}

// barrier returns once every queued frame has been processed: the snapshot
// request queues behind them on each shard.
func (d *driver) barrier() { d.s.SnapshotFlows() }

// timed replays passes passes, waits for the shards to drain, and reports
// the repetition.
func (d *driver) timed(passes int) rep {
	cpu0, t0 := cpuTime(), time.Now()
	for i := 0; i < passes; i++ {
		d.pass()
	}
	d.barrier()
	r := rep{wall: time.Since(t0), cpu: cpuTime() - cpu0, frames: passes * len(d.pkts)}
	if d.w.churns {
		r.flows = passes * len(d.w.flows)
	}
	return r
}

// outcome is what a finished sharded run hands the oracle.
type outcome struct {
	attempted int
	failures
	ingest pipeline.IngestStats
	table  flowtable.Stats
}

// close drains and stops the Sharded; after it no OnEvict call is running.
func (d *driver) close(drained <-chan struct{}) {
	d.s.Close()
	<-drained
}

// check feeds the closed Sharded's residual flows to the checker and closes
// the oracle.
func (d *driver) check(chk *checker) outcome {
	o := outcome{ingest: d.s.IngestStats(), table: d.s.TableStats()}
	chk.final.Store(int64(d.passes))
	for _, rec := range d.s.Flows() {
		chk.observe(rec)
	}
	passes, inserted := 1, len(d.w.flows)
	if d.w.churns {
		passes = 1 + d.passes
		inserted *= passes
	}
	o.attempted, o.failures = chk.verdict(passes, inserted,
		counters{table: o.table, ignored: o.ingest.Ignored, filtered: o.ingest.Filtered})
	return o
}

func (d *driver) finish(chk *checker, drained <-chan struct{}) outcome {
	d.close(drained)
	return d.check(chk)
}

// startSharded builds the program under test for a bare-Sharded workload
// and starts the one goroutine that drains Results(), handing each record to
// onResult when that is set.
func startSharded(st *setup, shards int, chk *checker, mod func(*pipeline.Config), onResult func(*pipeline.FlowRecord)) (*pipeline.Sharded, <-chan struct{}) {
	cfg := pipelineConfig(st.w, func(rec *pipeline.FlowRecord, _ flowtable.Reason) { chk.observe(rec) })
	if mod != nil {
		mod(&cfg)
	}
	s := pipeline.NewShardedWithConfig(st.bank, shards, cfg)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for rec := range s.Results() {
			if onResult != nil {
				onResult(rec)
			}
		}
	}()
	return s, drained
}

// e2e is one workload's end-to-end result.
type e2e struct {
	reps      []rep
	heapBytes int64
	outcome   outcome
}

// runSharded is the timed phase of churn, stream and adversarial: tracing
// off, the repetitions of passes passes each with a yardstick sample
// between them, the oracle closed at the end.
func runSharded(st *setup, passes int, y *yardstick, heapBase uint64) e2e {
	chk := newChecker(st.ref)
	s, drained := startSharded(st, benchShards, chk, nil, nil)
	d := newDriver(st.w, s)
	d.warm()
	d.barrier()
	var res e2e
	before := y.sample()
	for i := 0; i < repetitions; i++ {
		r := d.timed(passes)
		after := y.sample()
		r.yardNS = (before + after) / 2
		before = after
		res.reps = append(res.reps, r)
	}
	res.heapBytes = int64(liveHeap()) - int64(heapBase)
	runtime.KeepAlive(y) // its frames are part of heapBase, so they must still be live here
	res.outcome = d.finish(chk, drained)
	return res
}
