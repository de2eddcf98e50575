package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"videoplat/internal/features"
	"videoplat/internal/fingerprint"
	"videoplat/internal/flowtable"
	"videoplat/internal/packet"
	"videoplat/internal/pipeline"
	"videoplat/internal/telemetry"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files around the call: nothing inside the program is instrumented.
// Start and End are nanoseconds since the recorder began.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"` // 0 for a root
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// recorder appends spans to a preallocated slice. One goroutine per
// recorder; ids are only unique within one.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder(capacity int) *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, capacity)}
}

func (r *recorder) begin(name string, parent int32) int32 {
	id := int32(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(r.t0))})
	return id
}

func (r *recorder) end(id int32) { r.spans[id-1].End = int64(time.Since(r.t0)) }

// selfTimes sums, per span name, each span's duration minus the part its
// children cover: the time the layer itself was busy.
func (r *recorder) selfTimes() map[string]int64 {
	child := make([]int64, len(r.spans)+1)
	for _, s := range r.spans {
		child[s.Parent] += s.End - s.Start
	}
	out := map[string]int64{}
	for _, s := range r.spans {
		out[s.Name] += s.End - s.Start - child[s.ID]
	}
	return out
}

// writeTrace writes the recorders' spans as one JSON array, ids made unique
// across recorders by offsetting.
func writeTrace(dir, workload string, recs ...*recorder) error {
	var all []span
	for _, r := range recs {
		base := int32(len(all))
		for _, s := range r.spans {
			s.ID += base
			if s.Parent != 0 {
				s.Parent += base
			}
			all = append(all, s)
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), data, 0o644)
}

// budgetLayers are the staged layers a bare single-thread pipeline also
// executes; their self times make up the layer budget that
// trace.budget_coverage holds against the measured single-thread cost.
var budgetLayers = []string{
	"packet.parse", "packet.flow_key", "flowtable.put", "flowtable.touch", "flowtable.expire",
	"pipeline.assemble", "features.encode", "ml.predict_batch",
}

// handshake is one flow's assembled ClientHello and the models that serve it.
type handshake struct {
	prov fingerprint.Provider
	tr   fingerprint.Transport
	info *features.HandshakeInfo
}

// assemble runs the assembly layer over every flow's client frames and
// keeps the handshakes a provider's models can classify. Flows with no
// observable hello (0-RTT) or a fronted SNI (ECH) yield none. With a
// recorder, every flow gets a root span and its ExtractFrames call a child.
func assemble(w *workload, rec *recorder, parent int32) []handshake {
	var out []handshake
	for i := range w.flows {
		var flowRoot, id int32
		if rec != nil {
			flowRoot = rec.begin("flow", parent)
			id = rec.begin("pipeline.assemble", flowRoot)
		}
		info, err := pipeline.ExtractFrames(w.flows[i].client)
		if rec != nil {
			rec.end(id)
			rec.end(flowRoot)
		}
		if err != nil {
			continue
		}
		prov, _, ok := pipeline.MatchProvider(info.Hello.ServerName())
		if !ok {
			continue
		}
		tr := fingerprint.TCP
		if info.QUIC {
			tr = fingerprint.QUIC
		}
		out = append(out, handshake{prov, tr, info})
	}
	return out
}

// group splits handshakes by (provider, transport): one batch never mixes
// models.
func group(hs []handshake) [][]handshake {
	idx := map[[2]int]int{}
	var out [][]handshake
	for _, h := range hs {
		k := [2]int{int(h.prov), int(h.tr)}
		i, ok := idx[k]
		if !ok {
			i = len(out)
			idx[k] = i
			out = append(out, nil)
		}
		out[i] = append(out[i], h)
	}
	return out
}

// objectives returns a (provider, transport)'s three models, platform
// first. Their fitted encoders are equivalent, so one encode serves all.
func objectives(bank *pipeline.Bank, prov fingerprint.Provider, tr fingerprint.Transport) [3]*pipeline.Model {
	return [3]*pipeline.Model{
		bank.Model(prov, tr, pipeline.PlatformObjective),
		bank.Model(prov, tr, pipeline.DeviceObjective),
		bank.Model(prov, tr, pipeline.AgentObjective),
	}
}

// encodeRows encodes a batch back-to-back into rows, reusing its capacity.
func encodeRows(rows []float64, enc *features.CompiledEncoder, batch []handshake, sc *features.EncodeScratch) []float64 {
	stride := enc.Width()
	if need := len(batch) * stride; cap(rows) < need {
		rows = make([]float64, need)
	} else {
		rows = rows[:need]
		clear(rows)
	}
	for i, h := range batch {
		enc.EncodeInto(rows[i*stride:i*stride:(i+1)*stride], h.info, sc)
	}
	return rows
}

// stagedSpans is how many spans one staged pass records at most.
func stagedSpans(w *workload) int { return 3*len(w.frames)/benchBatch + 3*len(w.flows) + 4096 }

// stagedPass replays one steady pass single-threaded, one layer at a
// time, with a span around every call, or around every 64 calls where one
// call is too short for two clock reads to stay under a couple of percent
// of it. On the churning workloads a steady pass is pass 0 plus the expiry
// of the pass before; on stream it is the established-flow packets alone,
// so only decode, flow key and flow-table touch have work to show.
func stagedPass(st *setup, fill *telemetry.Store, rec *recorder) {
	w := st.w
	root := rec.begin("pass", 0)

	table := flowtable.New[int32](flowtable.Config{MaxFlows: benchMaxFlows, IdleTimeout: benchIdleTimeout},
		func(packet.FlowKey, int32, flowtable.Reason) {})
	for off := 0; off < len(w.flows); off += benchBatch {
		var id int32
		if w.churns {
			id = rec.begin("flowtable.put", root)
		}
		for i := off; i < min(off+benchBatch, len(w.flows)); i++ {
			table.Put(w.flows[i].key, int32(i), traceBase)
		}
		if w.churns {
			rec.end(id)
		}
	}

	// Per packet, in the order the pipeline works: decode, summarize the
	// decode into the canonical flow key, look the flow up.
	var parser packet.Parser
	var parsed [benchBatch]packet.Parsed
	var keys [benchBatch]packet.FlowKey
	for off := 0; off < len(w.frames); off += benchBatch {
		batch := w.frames[off:min(off+benchBatch, len(w.frames))]
		id := rec.begin("packet.parse", root)
		for i, f := range batch {
			_ = parser.Parse(f.data, &parsed[i]) // rendered frames always decode; the reference pass proved it
		}
		rec.end(id)
		id = rec.begin("packet.flow_key", root)
		for i := range batch {
			k, _ := parsed[i].Flow() // every rendered frame is TCP or UDP over IP
			keys[i] = k.Canonical()
		}
		rec.end(id)
		id = rec.begin("flowtable.touch", root)
		for i, f := range batch {
			table.Touch(keys[i], traceBase.Add(f.off))
		}
		rec.end(id)
	}
	if !w.churns {
		rec.end(root)
		return
	}
	id := rec.begin("flowtable.expire", root)
	table.ExpireIdle(traceBase.Add(w.advance))
	rec.end(id)

	var sc features.EncodeScratch
	var rows []float64
	var proba [3][]float64
	for _, g := range group(assemble(w, rec, root)) {
		models := objectives(st.bank, g[0].prov, g[0].tr)
		enc := models[0].Compiled()
		if enc == nil || models[0].CompiledForest() == nil {
			continue
		}
		for off := 0; off < len(g); off += benchBatch {
			batch := g[off:min(off+benchBatch, len(g))]
			batchRoot := rec.begin("batch", root)
			id := rec.begin("features.encode", batchRoot)
			rows = encodeRows(rows, enc, batch, &sc)
			rec.end(id)
			id = rec.begin("ml.predict_batch", batchRoot)
			for oi, m := range models {
				proba[oi] = m.CompiledForest().PredictBatchInto(rows, enc.Width(), proba[oi])
			}
			rec.end(id)
			rec.end(batchRoot)
		}
	}

	// telemetry: fold the pass's terminal records, seal the window into the
	// full store, read it back.
	sink := &spanSink{rec: rec, store: fill}
	roll := telemetry.NewRollup(time.Minute, sink)
	for off := 0; off < len(st.ref.records); off += benchBatch {
		sink.parent = rec.begin("rollup.add", root)
		for _, r := range st.ref.records[off:min(off+benchBatch, len(st.ref.records))] {
			roll.Add(r)
		}
		rec.end(sink.parent)
	}
	sink.parent = rec.begin("rollup.add", root)
	roll.Flush()
	rec.end(sink.parent)
	for _, by := range []string{telemetry.GroupPlatform, telemetry.GroupProvider} {
		id := rec.begin("store.query", root)
		if _, err := fill.Query(time.Time{}, time.Time{}, 10*time.Minute, by); err != nil {
			panic(fmt.Sprintf("bench: store query: %v", err)) // only an unknown group-by can fail, and these are constants
		}
		rec.end(id)
	}
	rec.end(root)
}

// spanSink is the Sink behind the staged rollup: a span around every window
// the store accepts, as a child of the rollup.add span that sealed it.
type spanSink struct {
	rec    *recorder
	store  *telemetry.Store
	parent int32
}

func (s *spanSink) WriteWindow(w *telemetry.Window) error {
	id := s.rec.begin("store.write_window", s.parent)
	err := s.store.WriteWindow(w)
	s.rec.end(id)
	return err
}
