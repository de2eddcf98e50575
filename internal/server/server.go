// Package server turns the batch classification pipeline into a
// long-running streaming ingest daemon: a replay source streams frames at a
// configurable packet rate through the sharded pipeline, per-shard flow
// tables are bounded (LRU + idle eviction) so memory stays flat under
// sustained traffic, finalized flows roll up into tumbling telemetry
// windows retired to a pluggable sink, and an HTTP operations API exposes
// live counters (/stats), the active flow table (/flows), liveness
// (/healthz) and Prometheus-style gauges (/metrics).
//
// The replay loop reads and dispatches frames in batches
// (Config.BatchSize) through the pipeline's batch ingest path: each frame's
// 5-tuple, shard hash and payload bounds are read off its headers once, on
// the replay goroutine (packet.Summary), and shipped in a pooled per-batch
// arena that shard workers recycle after the pipeline consumes it — no
// layer decode off the handshake, no per-packet allocation, one channel
// send per shard per batch. Frames that carry no TCP/UDP 5-tuple are
// dropped at ingest and surface as ignored_frames in
// /stats and /metrics, alongside the ingest stall (backpressure) and
// dropped-result counters.
//
// Sealed rollup windows are also retained in a queryable telemetry store
// (Config.Store, defaulted when nil): a bounded in-memory ring with
// downsampling tiers, reloadable from the JSONL archive Config.Sink writes,
// that /windows (range listing) and /query (time-range re-aggregation by
// provider, platform or model version) serve live — the paper's longitudinal per-provider /
// per-platform questions answered from the daemon instead of offline JSONL
// post-processing. Store occupancy, eviction, compaction and sink-error
// counters surface in /stats and /metrics.
//
// This is the service surface the paper's continuous broadband deployment
// implies but the batch tools lack; cmd/vpserve is the daemon entrypoint.
//
// With a model registry attached (Config.Registry), the daemon also serves
// the model lifecycle: /models lists stored bank versions and the active
// one, /models/promote and /models/rollback hot-swap the serving bank with
// zero downtime, /models/export captures the active bank as a vptrain-style
// gob, and a drift monitor plus retrainer (Config.Drift, Config.Retrainer)
// close the paper's §5.3 detect→retrain→redeploy loop automatically.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	netpprof "net/http/pprof"
	"net/netip"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"videoplat/internal/drift"
	"videoplat/internal/features"
	"videoplat/internal/fingerprint"
	"videoplat/internal/flowtable"
	"videoplat/internal/obs"
	"videoplat/internal/pipeline"
	"videoplat/internal/registry"
	"videoplat/internal/telemetry"
)

// Config tunes the daemon. Zero values select production-ish defaults.
type Config struct {
	// Addr is the operations API listen address (default "127.0.0.1:8080";
	// use ":0" to let the kernel pick a free port, e.g. in tests).
	Addr string
	// Shards is the pipeline fan-out width (default GOMAXPROCS).
	Shards int
	// MaxFlows caps tracked flows across all shards (default 65536,
	// divided evenly per shard).
	MaxFlows int
	// IdleTimeout retires flows with no packet for this long, in trace
	// time (default 90s).
	IdleTimeout time.Duration
	// WindowWidth is the tumbling rollup window width (default 1 minute).
	WindowWidth time.Duration
	// Rate paces the replay in packets per wall-clock second (0 = as fast
	// as possible). Pacing is applied per batch, so the burst granularity
	// is min(BatchSize, Rate/20) packets.
	Rate float64
	// BatchSize is how many frames the replay loop reads from the source
	// and dispatches per pipeline batch (default 64, the size the bench/
	// workloads validate against the pipeline's 64-message shard inboxes).
	// Not a vpserve flag: the field stays because bench/daemon.go names it.
	BatchSize int
	// EarlyMinMargin is the PlatformMargin floor for degraded
	// classifications of flows whose hello is encrypted (ECH) or absent
	// (0-RTT) (0 = pipeline default of 0.10; <0 = any margin).
	EarlyMinMargin float64
	// ProviderHint maps a server address to its provider (the IP-to-CDN
	// knowledge of the tap). Nil disables degraded classification: ECH and
	// 0-RTT flows then abstain into the open-set bucket.
	ProviderHint func(addr netip.Addr) (fingerprint.Provider, bool)
	// Sink receives sealed rollup windows (nil = discard), e.g. the JSONL
	// archive of vpserve -telemetry-persist. Independent of the Store:
	// windows always reach both.
	Sink telemetry.Sink
	// Store retains sealed rollup windows for the /windows and /query
	// endpoints. Nil selects a default store (1024 windows per tier, with
	// 10x- and 60x-window downsampling tiers); supply one to tune retention
	// or downsampling (see telemetry.StoreConfig), or one that Reload has
	// filled from a previous run's archive.
	Store *telemetry.Store

	// Registry, if non-nil, enables the model lifecycle API: /models,
	// /models/promote and /models/rollback, and every activation
	// (API-driven or retrainer-driven) hot-swaps the serving pipeline's
	// bank with zero downtime. The caller remains responsible for seeding
	// an empty registry and passing its active bank to New.
	Registry *registry.Registry
	// Drift, if non-nil, observes every classification (the complete
	// stream, not the best-effort Results channel) and surfaces per-
	// classifier verdicts in /stats. When Registry is also set and no
	// Retrainer owns the monitor, the server rebaselines it after each
	// swap so a new bank is judged against its own reference.
	Drift *drift.Monitor
	// Retrainer, if non-nil, runs the drift-triggered retrain loop for the
	// daemon's lifetime: shadow evaluations are fed from the serving
	// path's classifications and promotions hot-swap the bank. The caller
	// should have bound it to Drift via BindMonitor.
	Retrainer *registry.Retrainer

	// Journal receives the daemon's typed ops events (model lifecycle, drift
	// triggers, eviction pressure, sink errors…), served by GET /events and
	// counted in /metrics. Nil selects a private journal with
	// obs.DefaultJournalCapacity and no log mirroring; supply one to share
	// it across subsystems (cmd/vpserve passes the same journal to the
	// retrainer) or to mirror events into a slog logger.
	Journal *obs.Journal

	// EnablePprof serves Go's runtime profiling endpoints under
	// /debug/pprof/ (CPU/heap profiles, goroutine dumps, execution traces).
	// Off by default: profiles expose internals and CPU profiling costs a
	// few percent while running, so turning it on is an explicit operator
	// decision (-pprof).
	EnablePprof bool
	// TraceSampleEvery admits every Nth new flow to lifecycle tracing
	// (default 256; <0 disables tracing entirely). 1 traces every flow —
	// useful in tests, expensive at line rate.
	TraceSampleEvery int
}

func (c *Config) fillDefaults() {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:8080"
	}
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	// No value lifts the flow-table bounds: a daemon that never restarts has
	// no use for an unbounded table.
	if c.MaxFlows <= 0 {
		c.MaxFlows = 65536
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 90 * time.Second
	}
	if c.WindowWidth <= 0 {
		c.WindowWidth = time.Minute
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
}

// Server is the streaming ingest daemon. Create with New, start with Run.
type Server struct {
	cfg     Config
	src     Source
	sharded *pipeline.Sharded
	rollup  *telemetry.Rollup
	store   *telemetry.Store
	obsv    *obs.PipelineObserver
	tracer  *obs.Tracer
	lis     net.Listener
	httpSrv *http.Server

	journal *obs.Journal
	running atomic.Bool // ingest/replay loops started (readiness)

	startWall time.Time
	packets   atomic.Uint64
	batches   atomic.Uint64
	bytes     atomic.Uint64
	swaps     atomic.Uint64 // bank hot-swaps applied to the pipeline

	// Journal edge-detection state for window-seal health events and shadow
	// delta stamping. lastSealed/lastSinkErrs/lastCompactions/lastCapEvict
	// are touched only from the aggregate goroutine (and finishPipeline,
	// which runs after it exits); lastShadowAgreed/Disagreed only from the
	// rollup enrich hook, serialized under the rollup's lock.
	lastSealed         int
	lastSinkErrs       uint64
	lastCompactions    uint64
	lastCapEvict       uint64
	lastShadowAgreed   uint64
	lastShadowDisagree uint64

	evictions  chan *pipeline.FlowRecord
	replayDone chan struct{}
	aggDone    chan struct{}

	lastTS atomic.Int64 // latest packet timestamp (trace clock), unix nanos

	mu        sync.RWMutex
	replayErr error
	closed    bool // shutdown has started: /flows no longer snapshots the shards
}

// New builds a Server over a trained bank and a replay source and binds the
// operations listener, so Addr() is valid before Run is called.
func New(bank *pipeline.Bank, src Source, cfg Config) (*Server, error) {
	cfg.fillDefaults()
	store := cfg.Store
	if store == nil {
		store = telemetry.NewStore(telemetry.StoreConfig{
			Tiers: []time.Duration{10 * cfg.WindowWidth, 60 * cfg.WindowWidth},
		})
	}
	// Every sealed window reaches the queryable store; the configured sink
	// (e.g. a JSONL archive) rides alongside.
	sink := telemetry.Sink(store)
	if cfg.Sink != nil {
		sink = telemetry.MultiSink(store, cfg.Sink)
	}
	s := &Server{
		cfg:        cfg,
		src:        src,
		rollup:     telemetry.NewRollup(cfg.WindowWidth, sink),
		store:      store,
		obsv:       obs.NewPipelineObserver(),
		tracer:     obs.NewTracer(obs.TracerConfig{SampleEvery: cfg.TraceSampleEvery}),
		journal:    cfg.Journal,
		evictions:  make(chan *pipeline.FlowRecord, 1024),
		replayDone: make(chan struct{}),
		aggDone:    make(chan struct{}),
	}
	if s.journal == nil {
		s.journal = obs.NewJournal(0, nil)
	}
	// Window-scoped quality gauges (drift score, shadow agreement deltas)
	// are stamped into each window as it seals; the hook runs under the
	// rollup lock and must not call back into the rollup.
	s.rollup.SetEnrich(s.enrichWindow)

	pcfg := pipeline.Config{
		MaxFlows:       max(cfg.MaxFlows/cfg.Shards, 1), // per shard
		IdleTimeout:    cfg.IdleTimeout,
		EarlyMinMargin: cfg.EarlyMinMargin,
		ProviderHint:   cfg.ProviderHint,
		Observer:       s.obsv,
		Tracer:         s.tracer,
		OnEvict: func(rec *pipeline.FlowRecord, _ flowtable.Reason) {
			s.evictions <- rec
		},
	}
	if cfg.Drift != nil || cfg.Retrainer != nil {
		// One hook covers both consumers: the drift monitor sees the
		// complete classification stream, and the retrainer's shadow
		// evaluation samples from it. Runs on shard goroutines; both
		// consumers are concurrency-safe and non-blocking.
		pcfg.OnClassify = func(rec *pipeline.FlowRecord, hs *features.HandshakeInfo) {
			if cfg.Drift != nil {
				cfg.Drift.Observe(rec)
			}
			if cfg.Retrainer != nil {
				cfg.Retrainer.ObserveClassified(rec, hs)
			}
		}
	}
	s.sharded = pipeline.NewShardedWithConfig(bank, cfg.Shards, pcfg)

	if cfg.Registry != nil {
		// Every activation — operator promote/rollback or retrainer
		// promotion — hot-swaps the serving bank. The swap is an atomic
		// pointer store per shard; classification never blocks on it.
		cfg.Registry.OnSwap(func(v *registry.Version) {
			s.sharded.SwapBank(v.Bank)
			s.swaps.Add(1)
			s.journal.Record(obs.EventModelSwap, "serving bank hot-swapped",
				"version", v.Manifest.ID)
			if cfg.Drift != nil && cfg.Retrainer == nil {
				// No retrainer owns the monitor: reset the reference
				// distribution here so the new bank is not judged against
				// the old model's baseline.
				cfg.Drift.Rebaseline()
			}
		})
	}
	if cfg.Drift != nil {
		cfg.Drift.Subscribe(func(st drift.Status) {
			s.journal.Record(obs.EventDriftTrigger, st.Reason,
				"provider", st.Provider.String(),
				"transport", st.Transport.String())
		})
	}

	lis, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		s.sharded.Close()
		return nil, fmt.Errorf("server: listen %s: %w", cfg.Addr, err)
	}
	s.lis = lis

	mux := http.NewServeMux()
	for _, rt := range routes {
		mux.HandleFunc(rt.pattern, func(w http.ResponseWriter, r *http.Request) {
			rt.handler(s, w, r)
		})
	}
	s.httpSrv = &http.Server{Handler: mux}
	return s, nil
}

// routes is the complete operations API surface. Registration and the
// docs/OPERATIONS.md drift test (docs_test.go) both read this table, so a
// handler cannot be added without the test seeing it.
var routes = []struct {
	pattern string
	handler func(*Server, http.ResponseWriter, *http.Request)
}{
	{"GET /healthz", (*Server).handleHealthz},
	{"GET /readyz", (*Server).handleReadyz},
	{"GET /events", (*Server).handleEvents},
	{"GET /stats", (*Server).handleStats},
	{"GET /flows", (*Server).handleFlows},
	{"GET /windows", (*Server).handleWindows},
	{"GET /query", (*Server).handleQuery},
	{"GET /metrics", (*Server).handleMetrics},
	{"GET /models", (*Server).handleModels},
	{"POST /models/promote", (*Server).handleModelsPromote},
	{"POST /models/rollback", (*Server).handleModelsRollback},
	{"GET /models/export", (*Server).handleModelsExport},
	{"GET /trace", (*Server).handleTrace},
	{"GET /debug/pprof/", (*Server).handlePprof},
}

// Addr returns the bound operations API address.
func (s *Server) Addr() string { return s.lis.Addr().String() }

// ReplayDone is closed when the source is exhausted (or errored), letting a
// caller shut down once a finite replay completes.
func (s *Server) ReplayDone() <-chan struct{} { return s.replayDone }

// Run serves until ctx is cancelled, then shuts down gracefully: the replay
// stops, the shards finalize and evict every flow still open, the final
// partial window is flushed to the sink, and the HTTP server closes. Run
// returns nil on a clean shutdown.
func (s *Server) Run(ctx context.Context) error {
	s.startWall = time.Now()

	go s.aggregate()
	replayCtx, cancelReplay := context.WithCancel(ctx)
	defer cancelReplay()
	go s.replay(replayCtx)
	s.running.Store(true) // ingest machinery is live: readiness can pass
	// retrainDone closes once the retrainer's loop has returned, by which
	// point it has joined every goroutine it started.
	retrainDone := make(chan struct{})
	go func() {
		defer close(retrainDone)
		if s.cfg.Retrainer != nil {
			s.cfg.Retrainer.Start(replayCtx) // training never runs on the serving path
		}
	}()
	stopIngest := func() {
		cancelReplay()
		<-s.replayDone
		<-retrainDone
		s.finishPipeline()
	}

	httpErr := make(chan error, 1)
	go func() { httpErr <- s.httpSrv.Serve(s.lis) }()

	select {
	case <-ctx.Done():
	case err := <-httpErr:
		stopIngest()
		return fmt.Errorf("server: http: %w", err)
	}
	stopIngest()

	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := s.httpSrv.Shutdown(shutCtx); err != nil {
		return fmt.Errorf("server: shutdown: %w", err)
	}
	if err := <-httpErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("server: http: %w", err)
	}
	return nil
}

// finishPipeline finalizes every flow still open and rolls it up, so a
// finite replay's telemetry is complete at exit. The flows leave the way an
// idle one does — the shards evict them, oldest first, and aggregate folds
// the records — so a flow's verdict is decided in one place whenever it
// ends.
func (s *Server) finishPipeline() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()

	s.sharded.Drain()  // the replay has stopped: evicts every flow through OnEvict
	s.sharded.Close()  // no OnEvict call is running or queued after this
	close(s.evictions) // so aggregate can finish folding and exit
	<-s.aggDone

	if c, ok := s.src.(io.Closer); ok {
		c.Close() // replay goroutine has exited; release e.g. the capture fd
	}
	s.rollup.Flush()
	if sealed := s.rollup.Sealed(); sealed != s.lastSealed {
		s.lastSealed = sealed
		s.sealHealthEvents()
	}
}

// replay streams the source through the sharded pipeline in batches of up
// to cfg.BatchSize frames, pacing to cfg.Rate packets/sec when set. Each
// batch is one HandlePacketBatch call — one header summary per frame on
// this goroutine and one channel send per shard, Sharded's ingest contract.
func (s *Server) replay(ctx context.Context) {
	defer close(s.replayDone)
	var interval time.Duration
	if s.cfg.Rate > 0 {
		interval = time.Duration(float64(time.Second) / s.cfg.Rate)
	}
	size := s.effectiveBatchSize()
	batch := make([]pipeline.IngestPacket, 0, size)
	next := time.Now()
	for {
		select {
		case <-ctx.Done():
			return
		default:
		}
		batch = batch[:0]
		var srcErr error
		for len(batch) < size {
			pkt, err := s.src.Next()
			if err != nil {
				srcErr = err
				break
			}
			batch = append(batch, pipeline.IngestPacket{TS: pkt.Timestamp, Data: pkt.Data})
			s.bytes.Add(uint64(len(pkt.Data)))
			if ns := pkt.Timestamp.UnixNano(); ns > s.lastTS.Load() {
				s.lastTS.Store(ns)
			}
		}
		if len(batch) > 0 {
			s.sharded.HandlePacketBatch(batch)
			s.packets.Add(uint64(len(batch)))
			s.batches.Add(1)
		}
		if srcErr != nil {
			if srcErr != io.EOF {
				s.mu.Lock()
				s.replayErr = srcErr
				s.mu.Unlock()
			}
			return
		}
		if interval > 0 {
			next = next.Add(interval * time.Duration(len(batch)))
			if wait := time.Until(next); wait > 0 {
				select {
				case <-time.After(wait):
				case <-ctx.Done():
					return
				}
			} else if wait < -time.Second {
				next = time.Now() // fell behind; don't burst to catch up
			}
		}
	}
}

// effectiveBatchSize is the frames-per-batch the replay loop actually uses:
// cfg.BatchSize, capped for rate-limited replays so a batch bursts at most
// ~50ms of the pacing budget at a time, keeping low rates smooth.
func (s *Server) effectiveBatchSize() int {
	size := s.cfg.BatchSize
	if s.cfg.Rate > 0 {
		if perTick := int(s.cfg.Rate / 20); perTick < size {
			size = max(perTick, 1)
		}
	}
	return size
}

// aggregate folds evicted flows (final telemetry → rollup) until the
// evictions channel closes. It must never wait on s.mu, which /flows holds
// across a shard snapshot — a shard blocked on a full evictions buffer would
// deadlock otherwise. It also drains Results() and discards what it reads:
// the live counters come from the shard verdict counters (Snapshot), and
// draining keeps dropped_results meaning "the consumer lagged".
func (s *Server) aggregate() {
	defer close(s.aggDone)
	results := s.sharded.Results()
	evictions := s.evictions
	for results != nil || evictions != nil {
		select {
		case _, ok := <-results:
			if !ok {
				results = nil
			}
		case rec, ok := <-evictions:
			if !ok {
				evictions = nil
				continue
			}
			s.addToRollup(rec)
		}
	}
}

// addToRollup commits one finalized record to the rollup, timed as the
// pipeline's rollup stage. When the add seals a window, pipeline-health
// deltas (sink errors, store compactions, flow-table cap pressure) are
// checked and journaled — once per sealed window, not per flow, so the
// checks stay off the per-record path.
func (s *Server) addToRollup(rec *pipeline.FlowRecord) {
	t0 := time.Now()
	s.rollup.Add(rec)
	s.obsv.Record(obs.StageRollup, time.Since(t0))
	if sealed := s.rollup.Sealed(); sealed != s.lastSealed {
		s.lastSealed = sealed
		s.sealHealthEvents()
	}
}

// Stats is the /stats document.
type Stats struct {
	UptimeSeconds float64 `json:"uptime_seconds"`

	Replay struct {
		Packets        uint64    `json:"packets"`
		Bytes          uint64    `json:"bytes"`
		PacketsPerSec  float64   `json:"packets_per_sec"`
		LastPacketTime time.Time `json:"last_packet_time"`
		Done           bool      `json:"done"`
		Error          string    `json:"error,omitempty"`
	} `json:"replay"`

	FlowTable      flowtable.Stats `json:"flow_table"`
	DroppedResults uint64          `json:"dropped_results"`

	// Ingest reports the batch ingest path's counters.
	Ingest struct {
		// BatchSize is the effective frames-per-batch of the replay loop
		// (the configured size, capped for rate-limited replays).
		BatchSize int `json:"batch_size"`
		// Batches counts dispatched ingest batches.
		Batches uint64 `json:"batches"`
		// IgnoredFrames counts frames dropped at ingest (failed to parse
		// or not TCP/UDP — no flow to route).
		IgnoredFrames uint64 `json:"ignored_frames"`
		// FilteredFrames counts decodable flows dropped at ingest by the
		// port-443 video filter.
		FilteredFrames uint64 `json:"filtered_frames"`
		// Stalls counts ingest submissions that blocked on a full shard
		// inbox (backpressure, not loss).
		Stalls uint64 `json:"stalls"`
		// Migrations counts QUIC connection migrations absorbed by CID
		// re-keying (each is a flow whose 5-tuple changed mid-connection).
		Migrations uint64 `json:"migrations"`
		// EarlyClassified counts flows classified from partial handshake
		// evidence (ECH or 0-RTT) via the provider hint + margin gate.
		EarlyClassified uint64 `json:"early_classified"`
		// QueueDepths is the live per-shard ingest inbox occupancy in batch
		// messages; QueueCapacity is each inbox's capacity. Sustained
		// near-capacity depths mean the shards can't keep up (see Stalls).
		QueueDepths   []int `json:"queue_depths"`
		QueueCapacity int   `json:"queue_capacity"`
	} `json:"ingest"`

	// Latency is the per-stage pipeline latency digest (count, mean and
	// p50/p90/p99/max per stage) since process start. GET /trace serves
	// per-flow exemplars behind the same stages.
	Latency []obs.StageStats `json:"latency"`

	// Trace reports the flow-lifecycle sampler's counters; the spans
	// themselves are served by GET /trace.
	Trace struct {
		// SampleEvery is the 1-in-N admission rate (<0 = tracing disabled).
		SampleEvery int `json:"sample_every"`
		// Offered counts flows seen by the sampler, Admitted spans started,
		// Finished spans completed.
		Offered  uint64 `json:"offered"`
		Admitted uint64 `json:"admitted"`
		Finished uint64 `json:"finished"`
	} `json:"trace"`

	// Runtime is the Go runtime's live gauges (goroutines, heap, GC pauses).
	Runtime obs.RuntimeStats `json:"runtime"`
	// Build identifies the running binary (Go version, module version, VCS
	// revision when stamped).
	Build obs.BuildInfo `json:"build"`

	// Config echoes the effective daemon configuration after defaulting, so
	// an operator can confirm what a running instance is actually doing.
	Config struct {
		Shards           int     `json:"shards"`
		MaxFlows         int     `json:"max_flows"`
		BatchSize        int     `json:"batch_size"`
		WindowSeconds    float64 `json:"window_seconds"`
		TraceSampleEvery int     `json:"trace_sample_every"`
		PprofEnabled     bool    `json:"pprof_enabled"`
	} `json:"config"`

	// FlowVerdicts counts flows by terminal verdict (classified, abstained,
	// no-handshake, …; verdicts no flow has reached are omitted), and
	// ByProvider splits the classified ones by provider. Both are the shard
	// workers' own counters (pipeline.IngestStats), exact and live: a flow
	// is counted once, when its verdict is decided, not when its record is
	// evicted and rolled up. FinalizedFlows is their sum.
	FlowVerdicts   map[string]uint64 `json:"flow_verdicts,omitempty"`
	ByProvider     map[string]uint64 `json:"classified_by_provider"`
	FinalizedFlows uint64            `json:"finalized_flows"`

	// Events summarizes the ops event journal; the events themselves are
	// served by GET /events.
	Events obs.JournalStats `json:"events"`

	Rollup struct {
		WindowSeconds float64 `json:"window_seconds"`
		Sealed        int     `json:"sealed_windows"`
		// SinkError is the first sink write failure; SinkErrors counts
		// every failure, so later errors are no longer invisible.
		SinkError  string               `json:"sink_error,omitempty"`
		SinkErrors uint64               `json:"sink_errors,omitempty"`
		Current    *telemetry.Window    `json:"current_window,omitempty"`
		Store      telemetry.StoreStats `json:"store"`
	} `json:"rollup"`

	// Models reports the serving bank's identity and, with a registry
	// attached, the lifecycle state.
	Models ModelsStats `json:"models"`
	// Drift lists per-classifier drift verdicts when a monitor is attached.
	Drift []drift.Status `json:"drift,omitempty"`
}

// ModelsStats is the /stats models section.
type ModelsStats struct {
	// ActiveVersion is the registry version of the serving bank
	// ("unversioned" for ad-hoc banks).
	ActiveVersion string `json:"active_version"`
	// Swaps counts bank hot-swaps applied to the pipeline since start.
	Swaps uint64 `json:"swaps"`
	// Versions is how many versions the registry stores (0 without one).
	Versions int `json:"versions,omitempty"`
	// Retrainer is the auto-retrain loop's state, when one is running.
	Retrainer *registry.Status `json:"retrainer,omitempty"`
	// Compiled is the serving bank's compiled-forest footprint: how many
	// models lowered into flat node arrays, their flattened node count, and
	// the resident bytes the compiled serving index pins.
	Compiled pipeline.CompiledFootprint `json:"compiled"`
}

// Snapshot assembles the current Stats. Safe from any goroutine.
func (s *Server) Snapshot() Stats {
	var st Stats
	uptime := time.Since(s.startWall).Seconds()
	st.UptimeSeconds = uptime
	st.Replay.Packets = s.packets.Load()
	st.Replay.Bytes = s.bytes.Load()
	if uptime > 0 {
		st.Replay.PacketsPerSec = float64(st.Replay.Packets) / uptime
	}
	select {
	case <-s.replayDone:
		st.Replay.Done = true
	default:
	}
	// The verdicts before the table: a flow is inserted before it is
	// decided, so read in this order no scrape counts more decided flows
	// than inserted ones.
	ing := s.sharded.IngestStats()
	st.FlowTable = s.sharded.TableStats()
	st.DroppedResults = ing.DroppedResults
	st.Ingest.BatchSize = s.effectiveBatchSize()
	st.Ingest.Batches = s.batches.Load()
	st.Ingest.IgnoredFrames = ing.Ignored
	st.Ingest.FilteredFrames = ing.Filtered
	st.Ingest.Stalls = ing.Stalls
	st.Ingest.Migrations = ing.Migrations
	st.Ingest.EarlyClassified = ing.EarlyClassified
	st.Ingest.QueueDepths = s.sharded.QueueDepths()
	st.Ingest.QueueCapacity = s.sharded.QueueCapacity()
	st.Latency = s.obsv.StageStats()
	tsnap := s.tracer.Snapshot(1) // counters only; spans served by /trace
	st.Trace.SampleEvery = tsnap.SampleEvery
	st.Trace.Offered = tsnap.Offered
	st.Trace.Admitted = tsnap.Admitted
	st.Trace.Finished = tsnap.Finished
	st.Runtime = obs.ReadRuntimeStats()
	st.Build = obs.ReadBuildInfo()
	st.Config.Shards = s.cfg.Shards
	st.Config.MaxFlows = s.cfg.MaxFlows
	st.Config.BatchSize = s.cfg.BatchSize
	st.Config.WindowSeconds = s.cfg.WindowWidth.Seconds()
	st.Config.TraceSampleEvery = tsnap.SampleEvery
	st.Config.PprofEnabled = s.cfg.EnablePprof
	st.FlowVerdicts = map[string]uint64{}
	for v, n := range ing.Verdicts {
		if n > 0 {
			st.FlowVerdicts[pipeline.Verdict(v).String()] = n
			st.FinalizedFlows += n
		}
	}
	st.ByProvider = map[string]uint64{}
	for prov, n := range ing.ClassifiedByProvider {
		if n > 0 {
			st.ByProvider[fingerprint.Provider(prov).String()] = n
		}
	}
	st.Events = s.journal.Stats()
	st.Rollup.WindowSeconds = s.rollup.Width().Seconds()
	st.Rollup.Sealed = s.rollup.Sealed()
	if err := s.rollup.Err(); err != nil {
		st.Rollup.SinkError = err.Error()
	}
	st.Rollup.SinkErrors = s.rollup.SinkErrors()
	st.Rollup.Current = s.rollup.Current()
	st.Rollup.Store = s.store.Stats()

	st.Models.ActiveVersion = s.activeVersion()
	st.Models.Swaps = s.swaps.Load()
	st.Models.Compiled = s.sharded.Bank().CompiledFootprint()
	if s.cfg.Registry != nil {
		st.Models.Versions = len(s.cfg.Registry.List())
	}
	if s.cfg.Retrainer != nil {
		rst := s.cfg.Retrainer.Status()
		st.Models.Retrainer = &rst
	}
	if s.cfg.Drift != nil {
		st.Drift = s.cfg.Drift.Statuses()
	}

	if ns := s.lastTS.Load(); ns != 0 {
		st.Replay.LastPacketTime = time.Unix(0, ns).UTC()
	}
	s.mu.RLock()
	if s.replayErr != nil {
		st.Replay.Error = s.replayErr.Error()
	}
	s.mu.RUnlock()
	return st
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.startWall).Seconds(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, s.Snapshot())
}

// flowSummary is one /flows row.
type flowSummary struct {
	Src       string  `json:"src"`
	Dst       string  `json:"dst"`
	Transport string  `json:"transport"`
	Provider  string  `json:"provider,omitempty"`
	SNI       string  `json:"sni,omitempty"`
	Verdict   string  `json:"verdict"`
	Platform  string  `json:"platform,omitempty"`
	DurationS float64 `json:"duration_seconds"`
	BytesDown int64   `json:"bytes_down"`
	BytesUp   int64   `json:"bytes_up"`
	MbpsDown  float64 `json:"mbps_down"`
}

func (s *Server) handleFlows(w http.ResponseWriter, r *http.Request) {
	limit, ok := parseLimit(w, r, 100)
	if !ok {
		return
	}

	// The read lock is held across the live snapshot: finishPipeline flips
	// closed under the write lock before it drains and closes the shards,
	// so no snapshot can race either. From then on every flow is on its way
	// out of the table, so there is nothing live to list.
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	}
	recs := s.sharded.SnapshotFlows()
	s.mu.RUnlock()

	out := struct {
		Active int           `json:"active_flows"`
		Flows  []flowSummary `json:"flows"`
	}{Active: len(recs), Flows: []flowSummary{}}
	for _, rec := range recs {
		if len(out.Flows) >= limit {
			break
		}
		fs := flowSummary{
			Src:       netip.AddrPortFrom(rec.Key.Src, rec.Key.SrcPort).String(),
			Dst:       netip.AddrPortFrom(rec.Key.Dst, rec.Key.DstPort).String(),
			Transport: rec.Transport.String(),
			SNI:       rec.SNI,
			Verdict:   rec.Verdict.String(),
			DurationS: rec.Duration().Seconds(),
			BytesDown: rec.BytesDown,
			BytesUp:   rec.BytesUp,
			MbpsDown:  rec.MbpsDown(),
		}
		if rec.Verdict.ProviderKnown() {
			fs.Provider = rec.Provider.String()
		}
		if rec.Verdict.ClassifierRan() {
			fs.Platform = rec.Prediction.Platform
		}
		out.Flows = append(out.Flows, fs)
	}
	writeJSON(w, out)
}

// activeVersion names the bank currently serving classifications.
func (s *Server) activeVersion() string {
	if v := s.sharded.Bank().Version; v != "" {
		return v
	}
	return "unversioned"
}

// handleModels lists stored versions and the active one. Without a registry
// it still reports the serving bank's identity, with an empty history.
func (s *Server) handleModels(w http.ResponseWriter, _ *http.Request) {
	out := struct {
		Active   string                     `json:"active"`
		Swaps    uint64                     `json:"swaps"`
		Compiled pipeline.CompiledFootprint `json:"compiled"`
		History  []string                   `json:"history,omitempty"`
		Versions []registry.Manifest        `json:"versions"`
	}{
		Active:   s.activeVersion(),
		Swaps:    s.swaps.Load(),
		Compiled: s.sharded.Bank().CompiledFootprint(),
		Versions: []registry.Manifest{},
	}
	if s.cfg.Registry != nil {
		out.History = s.cfg.Registry.History()
		out.Versions = s.cfg.Registry.List()
	}
	writeJSON(w, out)
}

func (s *Server) handleModelsPromote(w http.ResponseWriter, r *http.Request) {
	if s.cfg.Registry == nil {
		http.Error(w, "no model registry configured (-registry-dir)", http.StatusConflict)
		return
	}
	id := r.URL.Query().Get("version")
	if id == "" {
		http.Error(w, "missing ?version=", http.StatusBadRequest)
		return
	}
	v, err := s.cfg.Registry.Promote(id)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.journal.Record(obs.EventModelPromote, "operator promoted bank version",
		"version", v.Manifest.ID)
	writeJSON(w, v.Manifest)
}

func (s *Server) handleModelsRollback(w http.ResponseWriter, _ *http.Request) {
	if s.cfg.Registry == nil {
		http.Error(w, "no model registry configured (-registry-dir)", http.StatusConflict)
		return
	}
	v, err := s.cfg.Registry.Rollback()
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	s.journal.Record(obs.EventModelRollback, "operator rolled back to prior bank version",
		"version", v.Manifest.ID)
	writeJSON(w, v.Manifest)
}

// handleModelsExport streams the active bank as the same gob format vptrain
// writes and -model loads, so an operator can capture a running system's
// model (e.g. a retrained version that exists only in the registry) for
// offline analysis or seeding another deployment.
func (s *Server) handleModelsExport(w http.ResponseWriter, _ *http.Request) {
	bank := s.sharded.Bank()
	blob, err := bank.MarshalBinary()
	if err != nil {
		http.Error(w, fmt.Sprintf("serializing bank: %v", err), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%q", s.activeVersion()+".bank.gob"))
	w.Header().Set("Content-Length", strconv.Itoa(len(blob)))
	w.Write(blob)
}

// handleTrace serves the flow-lifecycle tracer's snapshot: sampler counters,
// the most recently finished spans (?limit= caps them, default 32) and the
// slowest-flow exemplars.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if limit, ok := parseLimit(w, r, 32); ok {
		writeJSON(w, s.tracer.Snapshot(limit))
	}
}

// handlePprof dispatches /debug/pprof/* to Go's runtime profilers when the
// operator opted in with -pprof, and 404s otherwise so the profiling surface
// simply does not exist on un-flagged deployments.
func (s *Server) handlePprof(w http.ResponseWriter, r *http.Request) {
	if !s.cfg.EnablePprof {
		http.NotFound(w, r)
		return
	}
	switch name := strings.TrimPrefix(r.URL.Path, "/debug/pprof/"); name {
	case "":
		netpprof.Index(w, r)
	case "cmdline":
		netpprof.Cmdline(w, r)
	case "profile":
		netpprof.Profile(w, r)
	case "symbol":
		netpprof.Symbol(w, r)
	case "trace":
		netpprof.Trace(w, r)
	default:
		netpprof.Handler(name).ServeHTTP(w, r)
	}
}

// parseLimit reads the ?limit= of /flows, /trace, /events and /windows: a
// positive integer, def when absent. On anything else it has replied 400
// "bad limit" and ok is false.
func parseLimit(w http.ResponseWriter, r *http.Request, def int) (limit int, ok bool) {
	v := r.URL.Query().Get("limit")
	if v == "" {
		return def, true
	}
	n, err := strconv.Atoi(v)
	if err != nil || n < 1 {
		http.Error(w, "bad limit", http.StatusBadRequest)
		return 0, false
	}
	return n, true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
