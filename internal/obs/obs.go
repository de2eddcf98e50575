package obs

import "time"

// Stage identifies one timed segment of a flow's path through the pipeline.
type Stage int

const (
	// StageDecode is a frame's whole ingest: the header summary (5-tuple,
	// shard hash, payload bounds), routing and the arena copy, on the single
	// ingest goroutine. Sharded.HandlePacketBatch times the batch, not the
	// frame: two clock reads span its frame loop, and each of its frames gets
	// one sample of the batch's per-frame mean (one RecordN). So the stage's
	// count and mean are exact, and its quantiles and max are those of
	// per-batch means: a single slow frame is spread over its batch.
	StageDecode Stage = iota
	// StageQueueWait is the time a batch spends in a shard's channel between
	// the ingest goroutine's send and the shard worker picking it up.
	StageQueueWait
	// StageAssembly is handshake reassembly: placing a frame's handshake
	// bytes at their stream offsets in the flow's buffer and scanning for a
	// complete ClientHello.
	StageAssembly
	// StageClassify is feature encoding plus model inference for one
	// completed handshake (the Bank.ClassifyHandshake call).
	StageClassify
	// StageRollup is committing one finalized flow record into the
	// telemetry rollup (Rollup.Add, waiting for its lock included) on the
	// worker of the shard that evicted the flow, and moving the rollup's
	// watermark (Rollup.Advance, the seals it triggers included) on the
	// worker whose batch moved the shards' watermark.
	StageRollup

	// NumStages is the number of pipeline stages.
	NumStages = int(StageRollup) + 1
)

var stageNames = [NumStages]string{
	StageDecode:    "decode",
	StageQueueWait: "queue_wait",
	StageAssembly:  "assembly",
	StageClassify:  "classify",
	StageRollup:    "rollup",
}

// String returns the stage's snake_case name as used in /stats and /metrics.
func (s Stage) String() string {
	if s < 0 || int(s) >= NumStages {
		return "unknown"
	}
	return stageNames[s]
}

// PipelineObserver holds one lock-free histogram per pipeline stage. All
// methods are nil-receiver safe, so instrumented code paths need only a
// single pointer check (or none: Record on a nil observer is a no-op).
type PipelineObserver struct {
	hists [NumStages]Histogram
}

// NewPipelineObserver returns an observer with empty per-stage histograms.
func NewPipelineObserver() *PipelineObserver { return &PipelineObserver{} }

// Record adds one latency sample to the stage's histogram. 0 allocs/op
// (TestRecordZeroAlloc); a nil receiver or out-of-range stage is a no-op.
func (o *PipelineObserver) Record(s Stage, d time.Duration) { o.RecordN(s, d, 1) }

// RecordN adds n samples of d to the stage's histogram in one update
// (Histogram.RecordN). 0 allocs/op; a nil receiver, an out-of-range stage or
// n < 1 is a no-op.
func (o *PipelineObserver) RecordN(s Stage, d time.Duration, n int) {
	if o == nil || s < 0 || int(s) >= NumStages {
		return
	}
	o.hists[s].RecordN(d, n)
}

// epoch is Nanotime's zero. time.Now stamps it with a monotonic reading, and
// time.Since of such a Time reads the monotonic clock alone.
var epoch = time.Now()

// Nanotime returns monotonic nanoseconds since the package was initialised:
// one clock read, where time.Now makes two (wall and monotonic). Every stage
// timer on the packet path takes both of its ends from it, and the
// difference of two readings is the stage's duration. Never 0 in practice,
// so callers may use 0 for "not stamped".
func Nanotime() int64 { return int64(time.Since(epoch)) }

// Stage exposes one stage's histogram (nil for a nil receiver or an
// out-of-range stage).
func (o *PipelineObserver) Stage(s Stage) *Histogram {
	if o == nil || s < 0 || int(s) >= NumStages {
		return nil
	}
	return &o.hists[s]
}

// StageStats is one stage's latency digest as served by /stats.
type StageStats struct {
	// Stage is the stage's snake_case name.
	Stage string `json:"stage"`
	// Count is how many samples the stage has recorded.
	Count uint64 `json:"count"`
	// MeanMs/P50Ms/P90Ms/P99Ms/MaxMs summarize the distribution in
	// milliseconds. Quantiles are log-linear bucket upper bounds (~3%
	// resolution); Max is exact.
	MeanMs float64 `json:"mean_ms"`
	P50Ms  float64 `json:"p50_ms"`
	P90Ms  float64 `json:"p90_ms"`
	P99Ms  float64 `json:"p99_ms"`
	MaxMs  float64 `json:"max_ms"`
}

// StageStats snapshots every stage's histogram into a digest slice in
// pipeline order. A nil receiver yields nil.
func (o *PipelineObserver) StageStats() []StageStats {
	if o == nil {
		return nil
	}
	out := make([]StageStats, 0, NumStages)
	for i := 0; i < NumStages; i++ {
		snap := o.hists[i].Snapshot()
		out = append(out, StageStats{
			Stage:  Stage(i).String(),
			Count:  snap.Count,
			MeanMs: durMs(snap.Mean()),
			P50Ms:  durMs(snap.Quantile(0.50)),
			P90Ms:  durMs(snap.Quantile(0.90)),
			P99Ms:  durMs(snap.Quantile(0.99)),
			MaxMs:  durMs(time.Duration(snap.MaxNS)),
		})
	}
	return out
}

func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
