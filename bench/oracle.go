package main

import (
	"fmt"
	"net/netip"
	"sync/atomic"
	"time"

	"videoplat/internal/fingerprint"
	"videoplat/internal/flowtable"
	"videoplat/internal/packet"
	"videoplat/internal/pipeline"
	"videoplat/internal/tracegen"
)

// Fixed harness settings: identical on both sides of any comparison.
const (
	benchShards      = 2
	benchBatch       = 64
	benchIdleTimeout = 90 * time.Second
	benchMaxFlows    = 32768 // per shard; never reached
)

// pipelineConfig is the Config both the reference pipeline and the program
// under test run with.
func pipelineConfig(w *workload, onEvict func(*pipeline.FlowRecord, flowtable.Reason)) pipeline.Config {
	cfg := pipeline.Config{IdleTimeout: benchIdleTimeout, MaxFlows: benchMaxFlows, OnEvict: onEvict}
	if w.hint {
		cfg.ProviderHint = providerHint
	}
	return cfg
}

func providerHint(addr netip.Addr) (fingerprint.Provider, bool) { return tracegen.ProviderOfAddr(addr) }

// refFlow is what the reference pipeline decided for one flow.
type refFlow struct {
	verdict  pipeline.Verdict
	platform string
	// bytes and packets are the record's totals after pass 0; perPass is
	// what each further pass adds to a flow that persists (stream).
	bytes, bytesPerPass     int64
	packets, packetsPerPass int64
}

// reference is the single-pipeline oracle for one workload: the same
// frames, timestamps and Config pushed through one un-sharded
// pipeline.Pipeline on its per-flow classify path.
type reference struct {
	index map[packet.FlowKey]int32 // canonical key -> workload flow
	flows []refFlow
	// deciding[i] is the index in workload.first of the frame whose arrival
	// made flow i's classification final, or -1 when no frame ever did.
	deciding []int32
	records  []*pipeline.FlowRecord // pass-0 terminal records, in flow order
	verdicts [pipeline.NumVerdicts]uint64
	bytes    int64 // Σ BytesUp+BytesDown over pass-0 records
}

func recBytes(r *pipeline.FlowRecord) int64   { return r.BytesUp + r.BytesDown }
func recPackets(r *pipeline.FlowRecord) int64 { return int64(r.PacketsUp + r.PacketsDown) }

// buildReference runs the oracle pass.
func buildReference(bank *pipeline.Bank, w *workload) (*reference, error) {
	ref := &reference{
		index:    make(map[packet.FlowKey]int32, len(w.flows)),
		flows:    make([]refFlow, len(w.flows)),
		deciding: make([]int32, len(w.flows)),
		records:  make([]*pipeline.FlowRecord, len(w.flows)),
	}
	for i, m := range w.flows {
		ref.index[m.key] = int32(i)
		ref.deciding[i] = -1
	}
	evicted := 0
	p := pipeline.NewWithConfig(bank, pipelineConfig(w, func(*pipeline.FlowRecord, flowtable.Reason) { evicted++ }))
	for i, f := range w.first {
		rec, err := p.HandlePacket(traceBase.Add(f.off), f.data)
		if err != nil {
			return nil, fmt.Errorf("reference pass: frame %d: %w", i, err)
		}
		if rec != nil {
			id, ok := ref.index[rec.Key.Canonical()]
			if !ok {
				return nil, fmt.Errorf("reference pass: classified unknown flow %v", rec.Key)
			}
			ref.deciding[id] = int32(i)
		}
	}
	recs := p.Flows()
	if evicted != 0 || len(recs) != len(w.flows) {
		return nil, fmt.Errorf("reference pass: %d flows rendered, %d tracked, %d evicted", len(w.flows), len(recs), evicted)
	}
	for _, rec := range recs {
		id, ok := ref.index[rec.Key.Canonical()]
		if !ok || ref.records[id] != nil {
			return nil, fmt.Errorf("reference pass: unexpected or duplicate record for %v", rec.Key)
		}
		ref.records[id] = rec
		ref.flows[id] = refFlow{verdict: rec.Verdict, platform: rec.Prediction.Platform,
			bytes: recBytes(rec), packets: recPackets(rec)}
		ref.verdicts[rec.Verdict]++
		ref.bytes += recBytes(rec)
	}
	if !w.churns {
		// Persisting flows: one more pass shows what each pass adds.
		for _, f := range w.frames {
			if _, err := p.HandlePacket(traceBase.Add(w.advance+f.off), f.data); err != nil {
				return nil, fmt.Errorf("reference pass: %w", err)
			}
		}
		for _, rec := range p.Flows() {
			id := ref.index[rec.Key.Canonical()]
			ref.flows[id].bytesPerPass = recBytes(rec) - ref.flows[id].bytes
			ref.flows[id].packetsPerPass = recPackets(rec) - ref.flows[id].packets
		}
	}
	return ref, nil
}

// quality reports the reference's decision quality against render-time
// ground truth: accuracy over flows classified to a full platform, and the
// share of flows that ended in any abstain verdict.
func (ref *reference) quality(w *workload) (accuracy, abstainShare float64) {
	var composite, correct, abstained int
	for i, rec := range ref.records {
		switch rec.Verdict {
		case pipeline.VerdictAbstained, pipeline.VerdictAbstainedECH, pipeline.VerdictAbstainedZeroRTT:
			abstained++
		case pipeline.VerdictClassified:
			if rec.Prediction.Status == pipeline.Composite {
				composite++
				if rec.Prediction.Platform == w.flows[i].label {
					correct++
				}
			}
		}
	}
	if composite > 0 {
		accuracy = float64(correct) / float64(composite)
	}
	return accuracy, float64(abstained) / float64(len(ref.records))
}

// checker compares the program's terminal records with the reference as
// they arrive. observe is safe from concurrent shard goroutines; it keeps
// counters only, so a run's memory does not grow with its pass count.
type checker struct {
	ref        *reference
	seen       []atomic.Uint32
	mismatched atomic.Uint64 // verdict or platform differs
	foreign    atomic.Uint64 // record for a key no flow was rendered with
	// final is zero while the program runs and the number of replay passes
	// made once it has closed; records observed after that are end-of-run
	// records, and a persisting flow's byte and packet totals are checked
	// against it.
	final atomic.Int64
	wrong atomic.Uint64 // byte or packet total differs
}

func newChecker(ref *reference) *checker {
	return &checker{ref: ref, seen: make([]atomic.Uint32, len(ref.flows))}
}

// observe checks one terminal record: from OnEvict while running, from
// Flows() after Close. These two are the complete set — Results() is a
// best-effort channel that drops under saturation and is never a source.
func (c *checker) observe(rec *pipeline.FlowRecord) {
	id, ok := c.ref.index[rec.Key.Canonical()]
	if !ok {
		c.foreign.Add(1)
		return
	}
	c.seen[id].Add(1)
	want := &c.ref.flows[id]
	if rec.Verdict != want.verdict || rec.Prediction.Platform != want.platform {
		c.mismatched.Add(1)
	}
	extra := c.final.Load()
	if recBytes(rec) != want.bytes+extra*want.bytesPerPass || recPackets(rec) != want.packets+extra*want.packetsPerPass {
		c.wrong.Add(1)
	}
}

// counters are the program-side totals the oracle also pins.
type counters struct {
	table             flowtable.Stats
	ignored, filtered uint64
}

// failures counts failed operations, with a line per kind of failure.
type failures struct {
	failed   int
	problems []string
}

// add records n failed operations of one kind; n <= 0 records nothing.
func (f *failures) add(n int, format string, args ...any) {
	if n > 0 {
		f.failed += n
		f.problems = append(f.problems, fmt.Sprintf(format, args...))
	}
}

// verdict closes the check. passes is how many times every flow should have
// been finalized; inserted is how many flow-table inserts that implies. It
// returns operations attempted and the failures among them.
func (c *checker) verdict(passes, inserted int, got counters) (attempted int, f failures) {
	attempted = len(c.seen) * passes
	miss := 0
	for i := range c.seen {
		if n := int(c.seen[i].Load()); n != passes {
			miss++
		}
	}
	f.add(miss, "%d flows did not produce exactly %d terminal records", miss, passes)
	f.add(int(c.mismatched.Load()), "%d records differ from the reference in verdict or platform", c.mismatched.Load())
	f.add(int(c.wrong.Load()), "%d records differ from the reference in bytes or packets", c.wrong.Load())
	f.add(int(c.foreign.Load()), "%d records carry a key no flow was rendered with", c.foreign.Load())
	if got.table.Inserted != uint64(inserted) {
		f.add(1, "flow table inserted %d flows, want %d", got.table.Inserted, inserted)
	}
	f.add(int(got.table.EvictedCap), "%d flows evicted by the cap (MaxFlows must never be reached)", got.table.EvictedCap)
	f.add(int(got.ignored), "%d frames ignored at ingest", got.ignored)
	f.add(int(got.filtered), "%d frames filtered at ingest", got.filtered)
	return attempted, f
}
