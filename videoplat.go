// Package videoplat identifies the user platform — device type (Windows,
// macOS, Android, iOS, smart TV/console) and software agent (native app,
// Chrome, Firefox, Safari, Edge, Samsung Internet) — of video-streaming
// flows from YouTube, Netflix, Disney+ and Amazon Prime Video by analyzing
// only their TCP/QUIC and TLS handshake packets, as described in
// "Characterizing User Platforms for Video Streaming in Broadband Networks"
// (IMC 2024).
//
// The package is a facade over the implementation packages:
//
//   - GenerateLabDataset / GenerateOpenSetDataset render labeled synthetic
//     packet traces with the composition of the paper's Table 1;
//   - Train fits the per-provider classifier bank (3 objectives × 4
//     providers, with separate TCP and QUIC models for YouTube);
//   - NewPipeline wires a trained bank into a streaming packet processor
//     that detects video flows by SNI, extracts the 62 Table 2 attributes
//     from handshake packets, classifies the user platform with an 80%
//     confidence selector, and accumulates per-flow telemetry;
//   - NewAggregator summarizes classified flows into the watch-time,
//     bandwidth and temporal-usage statistics of the paper's §5.
//
// Beyond the batch workflow, the package exposes the building blocks of the
// paper's continuous deployment (the always-on tap of §4.3.3):
//
//   - NewBoundedPipeline bounds the pipeline's flow table (LRU + idle
//     eviction with eviction counters) so per-flow state stays flat under
//     sustained traffic, delivering evicted flows' final telemetry to a
//     callback instead of dropping it;
//   - NewRollup / NewJSONLSink maintain tumbling time windows of
//     per-provider and per-platform watch-time, bandwidth and
//     classification-rate aggregates, retiring sealed windows to a
//     pluggable sink;
//   - NewTelemetryStore retains sealed windows in a bounded, queryable
//     in-memory ring — count/age retention, coarser downsampling tiers
//     compacted by merging window aggregates so long ranges stay cheap,
//     and optional JSONL persistence reloaded on restart — and answers
//     time-range queries (since/until/step, grouped by provider, platform
//     or model version) live instead of via offline JSONL post-processing;
//   - NewServer assembles it all into a streaming ingest daemon that
//     replays capture files or synthetic traffic through the sharded
//     pipeline at a configurable packet rate and serves live operations
//     endpoints (/stats, /flows, /windows, /query, /events, /healthz,
//     /readyz, /metrics) with graceful shutdown.
//
// The §5.3 concept-drift story is closed by the model lifecycle subsystem,
// which evolves the classifier bank under live traffic:
//
//   - NewRegistry opens a versioned, disk-backed store of serialized banks
//     (manifest per version: id, training config, seed, creation time,
//     shadow-evaluation metrics). The active version sits behind an atomic
//     pointer, so Promote and Rollback are zero-downtime hot-swaps: a flow
//     classifying when the swap lands completes against the bank it
//     loaded, the next flow sees the new one, and every record carries the
//     ModelVersion that produced it (rollup windows aggregate these, so
//     sealed telemetry stays attributable across swaps);
//   - NewDriftMonitor watches per-classifier confidence and unknown-rate
//     windows, with pollable verdicts and push Subscribe notifications,
//     rebaselining itself whenever the serving bank's version changes;
//   - NewRetrainer ties them together: a flagged classifier triggers a
//     background retrain, the candidate bank shadow-classifies a sample of
//     live flows alongside the active bank, and is promoted only when its
//     confidence/agreement clears the ShadowGate — the paper's detect →
//     retrain → redeploy loop with no serving interruption. The Server
//     exposes it all over /models, /models/promote, /models/rollback and
//     /models/export.
//
// The serving spine is built for line rate: ingest parses each frame
// exactly once, per-flow handshakes are assembled incrementally (state-
// machine reassembly in O(client bytes), bounded by
// PipelineConfig.MaxHelloBytes), and a flow is classified on the frame that
// completes its handshake, through one compiled zero-allocation evaluator —
// the bank's three objectives share one encode pass over interned
// raw-wire-value tables and run compiled forests over the encoded row
// (Bank.ClassifyBatch; Bank.ClassifyHandshake is its one-flow case),
// writing into per-shard scratch instead of building per-flow maps and
// strings. The evaluator is byte-identical to the reference extraction path
// (Bank.Classify), pinned by golden-equivalence tests, and a bank is compiled
// where it is built — TrainBank and Bank.UnmarshalBinary refuse one that
// cannot be — so the reference path never serves; every flow leaves with
// exactly one terminal Verdict, counted in Pipeline.Stats.
//
// See examples/quickstart for an end-to-end batch walkthrough,
// examples/serve-replay for the streaming daemon, examples/telemetry-query
// for live time-range queries (and restart-surviving history) against the
// daemon, examples/drift-retrain for the forced-drift auto-promotion
// walkthrough, cmd/vpserve for the daemon binary, and cmd/vpexperiments
// for the harness that regenerates every table and figure in the paper.
package videoplat

import (
	"io"
	"log/slog"
	"time"

	"videoplat/internal/drift"
	"videoplat/internal/features"
	"videoplat/internal/fingerprint"
	"videoplat/internal/flowtable"
	"videoplat/internal/ml"
	"videoplat/internal/obs"
	"videoplat/internal/pipeline"
	"videoplat/internal/registry"
	"videoplat/internal/server"
	"videoplat/internal/telemetry"
	"videoplat/internal/tracegen"
)

// Re-exported core types. The aliases give downstream users a single import
// while keeping the implementation split into focused packages.
type (
	// Provider is a video content provider (YouTube, Netflix, Disney,
	// Amazon).
	Provider = fingerprint.Provider
	// Transport is a flow's transport protocol (TCP or QUIC).
	Transport = fingerprint.Transport
	// Dataset is a labeled collection of rendered video-flow traces.
	Dataset = tracegen.Dataset
	// FlowTrace is one rendered, labeled video flow.
	FlowTrace = tracegen.FlowTrace
	// Bank is the trained classifier bank of Fig 4.
	Bank = pipeline.Bank
	// Pipeline is the streaming packet processor.
	Pipeline = pipeline.Pipeline
	// FlowRecord is a classified flow with telemetry.
	FlowRecord = pipeline.FlowRecord
	// Prediction is a confidence-selected platform prediction.
	Prediction = pipeline.Prediction
	// Aggregator accumulates classified flows into §5-style statistics.
	Aggregator = telemetry.Aggregator
	// BoxStats is a five-number bandwidth summary.
	BoxStats = telemetry.BoxStats
	// ForestConfig holds the random-forest hyperparameters.
	ForestConfig = ml.ForestConfig

	// PipelineConfig bounds a pipeline's flow table for long-running use,
	// sizes a sharded pipeline's queues (ShardQueueDepth, ResultsBuffer)
	// and caps per-flow buffered handshake bytes (MaxHelloBytes).
	PipelineConfig = pipeline.Config
	// HandshakeInfo is a flow's assembled handshake state — what
	// PipelineConfig.OnClassify receives and Bank.ClassifyHandshake
	// consumes.
	HandshakeInfo = features.HandshakeInfo
	// ClassifyScratch holds a worker's reusable classification buffers for
	// the zero-allocation Bank.ClassifyHandshake / Bank.ClassifyBatch
	// evaluator.
	ClassifyScratch = pipeline.ClassifyScratch
	// ShardedPipeline fans packets across per-shard Pipelines by flow
	// hash, parsing each frame exactly once at ingest — the multi-queue
	// deployment shape of the paper's §4.3.3 prototype.
	ShardedPipeline = pipeline.Sharded
	// IngestPacket is one timestamped frame for the batch ingest path
	// (ShardedPipeline.HandlePacketBatch).
	IngestPacket = pipeline.IngestPacket
	// IngestStats is the sharded pipeline's one counter snapshot: frames
	// ignored and filtered at ingest, best-effort results dropped,
	// backpressure stalls, and the shard pipelines' oversized-handshake,
	// migration and early-classification counts.
	IngestStats = pipeline.IngestStats
	// FlowTableStats are a bounded flow table's occupancy/eviction counters.
	FlowTableStats = flowtable.Stats
	// Rollup maintains tumbling telemetry windows over finalized flows.
	Rollup = telemetry.Rollup
	// RollupWindow is one sealed tumbling window of flow aggregates.
	RollupWindow = telemetry.Window
	// RollupCell aggregates one provider's or platform's flows within a
	// window.
	RollupCell = telemetry.Cell
	// RollupSink receives sealed rollup windows.
	RollupSink = telemetry.Sink
	// TelemetryStore retains sealed windows in bounded, queryable,
	// optionally persistent multi-resolution rings.
	TelemetryStore = telemetry.Store
	// TelemetryStoreConfig tunes store retention, downsampling tiers and
	// persistence.
	TelemetryStoreConfig = telemetry.StoreConfig
	// TelemetryStoreStats are the store's occupancy/eviction/compaction
	// counters.
	TelemetryStoreStats = telemetry.StoreStats
	// QueryResult is a TelemetryStore.Query response: re-aggregated series
	// over a time range.
	QueryResult = telemetry.QueryResult
	// QuerySeries is one group's series within a QueryResult.
	QuerySeries = telemetry.QuerySeries
	// QueryPoint is one re-aggregated time bucket of a QuerySeries.
	QueryPoint = telemetry.QueryPoint
	// Server is the streaming ingest daemon with the operations HTTP API.
	Server = server.Server
	// ServeConfig tunes the streaming ingest daemon.
	ServeConfig = server.Config
	// ReplaySource streams timestamped frames into the daemon.
	ReplaySource = server.Source

	// Registry is the versioned model-bank store with atomic hot-swap.
	Registry = registry.Registry
	// RegistryConfig tunes a model registry (directory, retention).
	RegistryConfig = registry.Config
	// ModelManifest describes one stored bank version.
	ModelManifest = registry.Manifest
	// ModelVersion pairs a loaded bank with its manifest.
	ModelVersion = registry.Version
	// ShadowGate is the promotion bar for shadow-evaluated candidates.
	ShadowGate = registry.Gate
	// Retrainer runs the drift-triggered retrain/shadow/promote loop.
	Retrainer = registry.Retrainer
	// RetrainerConfig tunes the retrain loop (train func, gate, cooldown).
	RetrainerConfig = registry.RetrainerConfig
	// DriftMonitor flags classifiers whose predictions decay (§5.3).
	DriftMonitor = drift.Monitor
	// DriftConfig tunes drift detection windows and thresholds.
	DriftConfig = drift.Config

	// PipelineObserver collects zero-allocation per-stage latency
	// histograms; attach one via PipelineConfig.Observer and read digests
	// with StageStats.
	PipelineObserver = obs.PipelineObserver
	// StageStats is one stage's latency digest (count, mean, p50/p90/p99,
	// max).
	StageStats = obs.StageStats
	// LatencyHistogram is the underlying wait-free log-linear histogram.
	LatencyHistogram = obs.Histogram
	// LatencySummary is a sparse, mergeable, JSON-serializable latency
	// digest — the form rollup windows carry so downsampled telemetry
	// reports the same quantiles.
	LatencySummary = obs.Summary
	// FlowTracer samples flow lifecycles (1-in-N) into pooled spans;
	// attach one via PipelineConfig.Tracer.
	FlowTracer = obs.Tracer
	// FlowTracerConfig tunes sampling rate and span retention.
	FlowTracerConfig = obs.TracerConfig
	// FlowSpan is one sampled flow's lifecycle record: per-stage timings,
	// shard, queue depth at admission, model version and verdict.
	FlowSpan = obs.Span
	// TraceSnapshot is a tracer's state: counters, recent spans and
	// slowest-flow exemplars (GET /trace).
	TraceSnapshot = obs.TraceSnapshot
	// RuntimeStats are Go runtime gauges (goroutines, heap, GC pauses).
	RuntimeStats = obs.RuntimeStats
	// BuildInfo identifies the running binary.
	BuildInfo = obs.BuildInfo

	// Verdict is a flow's decision outcome: how (or why not) the pipeline
	// classified it. Every finalized FlowRecord carries one.
	Verdict = pipeline.Verdict
	// ConfidenceHist is a mergeable fixed-width histogram over [0, 1]
	// probabilities; quantiles stay exact under any merge order.
	ConfidenceHist = telemetry.ConfidenceHist
	// QualitySummary is a rollup window's decision-quality digest: verdict
	// counts, confidence/margin histograms, drift score and shadow
	// agreement — every field merges exactly across downsampling.
	QualitySummary = telemetry.QualitySummary
	// OpsEventType classifies an ops journal entry (model_promote,
	// drift_trigger, shadow_verdict, ...).
	OpsEventType = obs.EventType
	// OpsEvent is one typed, timestamped ops journal entry.
	OpsEvent = obs.Event
	// OpsJournal is a bounded ring of typed ops events with slog mirroring
	// (GET /events); pass one via ServeConfig.Journal.
	OpsJournal = obs.Journal
	// OpsJournalStats summarizes a journal's counters.
	OpsJournalStats = obs.JournalStats
)

// Providers.
const (
	YouTube = fingerprint.YouTube
	Netflix = fingerprint.Netflix
	Disney  = fingerprint.Disney
	Amazon  = fingerprint.Amazon
)

// Transports.
const (
	TCP  = fingerprint.TCP
	QUIC = fingerprint.QUIC
)

// Prediction statuses of the §4.1 confidence selector.
const (
	Composite = pipeline.Composite
	Partial   = pipeline.Partial
	Unknown   = pipeline.Unknown
)

// Telemetry query group-by dimensions (TelemetryStore.Query, GET /query).
const (
	GroupTotal    = telemetry.GroupTotal
	GroupProvider = telemetry.GroupProvider
	GroupPlatform = telemetry.GroupPlatform
	GroupModel    = telemetry.GroupModel
)

// Flow decision verdicts.
const (
	VerdictPending      = pipeline.VerdictPending
	VerdictClassified   = pipeline.VerdictClassified
	VerdictAbstained    = pipeline.VerdictAbstained
	VerdictBaselineOnly = pipeline.VerdictBaselineOnly
	VerdictNoHandshake  = pipeline.VerdictNoHandshake
	VerdictOversized    = pipeline.VerdictOversized
	VerdictNotVideo     = pipeline.VerdictNotVideo
	VerdictError        = pipeline.VerdictError
)

// Ops journal event types (the GET /events vocabulary).
const (
	EventModelPromote     = obs.EventModelPromote
	EventModelRollback    = obs.EventModelRollback
	EventModelSwap        = obs.EventModelSwap
	EventDriftTrigger     = obs.EventDriftTrigger
	EventDriftRearm       = obs.EventDriftRearm
	EventShadowStart      = obs.EventShadowStart
	EventShadowVerdict    = obs.EventShadowVerdict
	EventRetrainError     = obs.EventRetrainError
	EventEvictionPressure = obs.EventEvictionPressure
	EventSinkError        = obs.EventSinkError
	EventStoreCompaction  = obs.EventStoreCompaction
)

// Platforms lists the 17 user-platform labels of Table 1
// (e.g. "windows_chrome", "iOS_nativeApp", "ps5_nativeApp").
func Platforms() []string { return fingerprint.AllPlatformLabels() }

// GenerateLabDataset renders the paper's Table 1 lab dataset at the given
// scale in (0, 1]; scale 1.0 produces the full ~10,000 flows.
func GenerateLabDataset(seed uint64, scale float64) (*Dataset, error) {
	return tracegen.New(seed).LabDataset(scale, fingerprint.Options{})
}

// GenerateOpenSetDataset renders the §4.3.2 open-set dataset with
// version-drifted platform profiles, n flows per (platform, provider,
// transport) combination.
func GenerateOpenSetDataset(seed uint64, n int) (*Dataset, error) {
	return tracegen.New(seed).OpenSetDataset(n)
}

// Train fits the classifier bank on a labeled dataset. A zero ForestConfig
// selects the paper's tuned hyperparameters (depth 20, 34 candidate
// attributes per split).
func Train(ds *Dataset, cfg ForestConfig) (*Bank, error) {
	return pipeline.TrainBank(ds, pipeline.TrainConfig{Forest: cfg})
}

// NewPipeline returns a streaming packet processor over a trained bank.
// Feed it raw Ethernet frames via HandlePacket.
func NewPipeline(bank *Bank) *Pipeline { return pipeline.New(bank) }

// NewAggregator returns a telemetry aggregator normalizing watch time over
// the given number of days.
func NewAggregator(days float64) *Aggregator { return &Aggregator{Days: days} }

// NewBoundedPipeline returns a streaming packet processor whose flow table
// is bounded by cfg (max flows, idle timeout, eviction callback) — the
// configuration for long-running deployments where flow state must not grow
// with traffic.
func NewBoundedPipeline(bank *Bank, cfg PipelineConfig) *Pipeline {
	return pipeline.NewWithConfig(bank, cfg)
}

// NewShardedPipeline starts n shard workers over a trained bank, each with
// its own cfg-bounded flow table. Feed frames from one ingest goroutine
// with HandlePacket or, for high rates, HandlePacketBatch — each frame is
// parsed exactly once at ingest, buffers are pooled, and a batch costs at
// most one channel send per shard. A flow is classified by its shard worker
// on the frame that completes its handshake. Classified flows arrive on
// Results() (best-effort; see the Sharded type docs), IngestStats() is the
// counter snapshot — its classified, abstained and per-provider counts are
// exact whatever Results() dropped — and Close drains the workers.
func NewShardedPipeline(bank *Bank, n int, cfg PipelineConfig) *ShardedPipeline {
	return pipeline.NewShardedWithConfig(bank, n, cfg)
}

// NewRollup returns a windowed rollup engine retiring sealed windows of the
// given width to sink (nil discards).
func NewRollup(width time.Duration, sink RollupSink) *Rollup {
	return telemetry.NewRollup(width, sink)
}

// NewJSONLSink returns a rollup sink writing one JSON object per sealed
// window to w.
func NewJSONLSink(w io.Writer) RollupSink { return telemetry.NewJSONLSink(w) }

// NewTelemetryStore returns a queryable window store: a bounded in-memory
// ring of sealed rollup windows with count/age retention, multi-resolution
// downsampling tiers and optional JSONL persistence. It implements
// RollupSink, so it sits directly behind a Rollup — or behind the Server,
// which serves it over GET /windows and GET /query (pass it via
// ServeConfig.Store to tune retention; the Server builds a default one
// otherwise). Query re-aggregates retained windows into per-step series
// grouped by provider, platform or model version.
func NewTelemetryStore(cfg TelemetryStoreConfig) *TelemetryStore { return telemetry.NewStore(cfg) }

// MultiSink fans sealed windows out to several sinks, e.g. a queryable
// TelemetryStore plus a JSONL archive.
func MultiSink(sinks ...RollupSink) RollupSink { return telemetry.MultiSink(sinks...) }

// NewServer assembles the streaming ingest daemon: src replayed through a
// sharded, flow-table-bounded pipeline, with windowed rollups and the
// /stats, /flows, /events, /healthz, /readyz and /metrics operations API.
// Start it with Run.
func NewServer(bank *Bank, src ReplaySource, cfg ServeConfig) (*Server, error) {
	return server.New(bank, src, cfg)
}

// OpenReplaySource opens a pcap or pcapng capture file as a ReplaySource.
func OpenReplaySource(path string) (ReplaySource, error) { return server.OpenFileSource(path) }

// NewSynthSource returns a ReplaySource generating n synthetic video
// sessions (n <= 0: unlimited) — a built-in load generator for the daemon.
func NewSynthSource(seed uint64, n int) ReplaySource { return server.NewSynthSource(seed, n) }

// NewDriftingSynthSource is NewSynthSource with an injected fleet update:
// from session driftAfter on, flows render with the open-set profile
// perturbation — the §5.3 concept-drift scenario under live load.
func NewDriftingSynthSource(seed uint64, n, driftAfter int) ReplaySource {
	return server.NewDriftingSynthSource(seed, n, driftAfter)
}

// NewRegistry opens (or initializes) a versioned model registry. Store
// banks with Add, activate them with Promote/Rollback — each activation is
// a zero-downtime hot-swap for every serving pipeline subscribed via
// OnSwap (the Server subscribes automatically when given the registry).
func NewRegistry(cfg RegistryConfig) (*Registry, error) { return registry.New(cfg) }

// NewDriftMonitor returns a concept-drift monitor; feed it classified flow
// records with Observe and subscribe to flag events for retraining.
func NewDriftMonitor(cfg DriftConfig) *DriftMonitor { return drift.NewMonitor(cfg) }

// NewRetrainer returns the drift-triggered retrain loop over a registry
// with an active version. Bind it to a monitor, start it with Start, and
// feed live classifications to ObserveClassified (the Server does both
// when given the retrainer).
func NewRetrainer(reg *Registry, cfg RetrainerConfig) (*Retrainer, error) {
	return registry.NewRetrainer(reg, cfg)
}

// NewPipelineObserver returns a per-stage latency collector. Recording is
// wait-free and allocation-free; attach it to any pipeline via
// PipelineConfig.Observer (the Server wires one automatically and serves
// its digests in /stats and /metrics).
func NewPipelineObserver() *PipelineObserver { return obs.NewPipelineObserver() }

// NewFlowTracer returns a deterministic 1-in-N flow-lifecycle sampler.
// Attach it via PipelineConfig.Tracer; read spans with Snapshot (the Server
// serves its tracer over GET /trace).
func NewFlowTracer(cfg FlowTracerConfig) *FlowTracer { return obs.NewTracer(cfg) }

// ReadRuntimeStats snapshots the Go runtime's health gauges.
func ReadRuntimeStats() RuntimeStats { return obs.ReadRuntimeStats() }

// NewOpsJournal returns a bounded ops event journal (capacity <= 0 selects
// the default). A non-nil logger mirrors every event as a structured slog
// line. Wire it to a daemon via ServeConfig.Journal and, for the retrain
// lifecycle, RetrainerConfig.Events; the Server serves it over GET /events.
func NewOpsJournal(capacity int, logger *slog.Logger) *OpsJournal {
	return obs.NewJournal(capacity, logger)
}

// ReadBuildInfo reports the running binary's build identification (module,
// Go version, VCS revision) — what vpserve -version prints and /stats and
// videoplat_build_info expose.
func ReadBuildInfo() BuildInfo { return obs.ReadBuildInfo() }
