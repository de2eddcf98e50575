// Command vpserve is the streaming ingest daemon: it replays a pcap/pcapng
// capture (or generates synthetic traffic) through the sharded
// classification pipeline with bounded per-shard flow tables, rolls
// finalized flows into tumbling telemetry windows, and serves an
// operations API (/stats, /flows, /windows, /query, /events, /models,
// /trace, /healthz, /readyz, /metrics) while it runs.
// SIGINT/SIGTERM trigger a graceful shutdown that drains the shards and
// flushes the final partial window.
//
// Sealed windows are retained in a queryable in-memory store, so
// longitudinal questions — per-provider traffic over the last day,
// per-platform bandwidth by the hour — are answered live from /query
// instead of post-processing rollup files. -telemetry-retain bounds the
// store (count or age), -telemetry-tiers adds coarser downsampling
// resolutions so long ranges stay cheap, and -telemetry-persist, the one
// archive, appends every sealed window to a JSONL file that is reloaded on
// restart.
//
// With -registry-dir the daemon keeps its banks in a versioned model
// registry: /models lists the version history, /models/promote and
// /models/rollback hot-swap the serving bank without dropping a packet,
// and /models/export captures the active bank as a vptrain-style gob.
// -auto-retrain closes the paper's §5.3 loop: a drift monitor watches
// every classification, a flagged classifier triggers a background
// retrain, and the candidate is promoted only after shadow evaluation on
// live traffic clears the gate.
//
// Usage:
//
//	vpserve -model bank.gob -pcap capture.pcap -rate 5000 -telemetry-persist windows.jsonl
//	vpserve -synth 500 -addr :8080            # self-train a demo bank, synthetic load
//	vpserve -pcap capture.pcap -exit-when-done
//	vpserve -synth 400 -telemetry-tiers 10m,1h -telemetry-persist history.jsonl
//	vpserve -registry-dir ./models -auto-retrain -synth 400 -synth-drift-after 150
//
// See docs/OPERATIONS.md for the full flag, endpoint and metrics reference.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"videoplat/internal/drift"
	"videoplat/internal/fingerprint"
	"videoplat/internal/ml"
	"videoplat/internal/obs"
	"videoplat/internal/pipeline"
	"videoplat/internal/registry"
	"videoplat/internal/server"
	"videoplat/internal/telemetry"
	"videoplat/internal/tracegen"
)

// options holds every parsed vpserve flag.
type options struct {
	addr         string
	model        string
	pcapPath     string
	synth        int
	seed         uint64
	rate         float64
	shards       int
	maxFlows     int
	idleTimeout  time.Duration
	window       time.Duration
	trainScale   float64
	exitWhenDone bool

	telemetryRetain  string
	telemetryTiers   string
	telemetryPersist string

	pprof       bool
	traceSample int

	registryDir string
	autoRetrain bool
	driftWindow int
	driftDrop   float64
	cooldown    time.Duration
	shadowRate  float64
	shadowFlows int
	shadowAgree float64
	saveOnExit  string
	driftAfter  int

	adversarial    float64
	earlyMinMargin float64
	noProviderHint bool

	logFormat string
	version   bool
}

// registerFlags binds the complete vpserve flag set onto fs. The
// documentation drift test enumerates fs to verify docs/OPERATIONS.md
// covers every flag, so a flag cannot be added without it.
func registerFlags(fs *flag.FlagSet) *options {
	o := &options{}
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8080", "operations API listen address")
	fs.StringVar(&o.model, "model", "", "trained model from vptrain (default: self-train a small demo bank)")
	fs.StringVar(&o.pcapPath, "pcap", "", "pcap/pcapng file to replay")
	fs.IntVar(&o.synth, "synth", 0, "generate N synthetic video sessions instead of replaying a file (0 with no -pcap: unlimited)")
	fs.Uint64Var(&o.seed, "seed", 1, "seed for synthetic traffic and self-training")
	fs.Float64Var(&o.rate, "rate", 0, "replay pace in packets/sec (0 = as fast as possible)")
	fs.IntVar(&o.shards, "shards", 0, "pipeline shards (0 = GOMAXPROCS)")
	fs.IntVar(&o.maxFlows, "max-flows", 65536, "flow-table cap across shards")
	fs.DurationVar(&o.idleTimeout, "idle-timeout", 90*time.Second, "evict flows idle for this long, in trace time")
	fs.DurationVar(&o.window, "window", time.Minute, "rollup window width")
	fs.Float64Var(&o.trainScale, "train-scale", 0.04, "lab-dataset scale for self-trained and retrained banks")
	fs.BoolVar(&o.exitWhenDone, "exit-when-done", false, "shut down once the replay source is exhausted")

	fs.StringVar(&o.telemetryRetain, "telemetry-retain", "1440", "telemetry store retention per tier: a window count (e.g. 1440) or a trace-time age (e.g. 24h)")
	fs.StringVar(&o.telemetryTiers, "telemetry-tiers", "auto", "comma-separated downsampling widths for /query over long ranges (auto = 10x and 60x -window; none = raw only)")
	fs.StringVar(&o.telemetryPersist, "telemetry-persist", "", "JSONL file persisting the telemetry store across restarts (reloaded at startup, appended while serving)")

	fs.BoolVar(&o.pprof, "pprof", false, "serve Go runtime profiling under /debug/pprof/ (off by default)")
	fs.IntVar(&o.traceSample, "trace-sample", 0, "trace every Nth flow's lifecycle for /trace (0 = default 256, 1 = every flow, <0 = disable tracing)")

	fs.StringVar(&o.registryDir, "registry-dir", "", "versioned model registry directory (enables /models, promote/rollback hot-swap)")
	fs.BoolVar(&o.autoRetrain, "auto-retrain", false, "retrain and shadow-promote a new bank when drift is detected (requires -registry-dir)")
	fs.IntVar(&o.driftWindow, "drift-window", 0, "recent predictions per classifier for drift detection (0 = monitor default 500; size to your traffic)")
	fs.Float64Var(&o.driftDrop, "drift-drop", 0, "median-confidence drop that flags a classifier (0 = monitor default 0.10)")
	fs.DurationVar(&o.cooldown, "retrain-cooldown", time.Minute, "minimum gap between retrain attempts")
	fs.Float64Var(&o.shadowRate, "shadow-sample", 0.25, "fraction of live classifications shadow-evaluated by a candidate bank")
	fs.IntVar(&o.shadowFlows, "shadow-flows", 200, "shadow classifications required before a promote/reject verdict")
	fs.Float64Var(&o.shadowAgree, "shadow-agreement", 0.5, "minimum candidate/active agreement on flows both predict confidently (0 = gate default 0.5, negative disables)")
	fs.StringVar(&o.saveOnExit, "save-on-exit", "", "write the bank active at shutdown to this file (captures retrained banks)")
	fs.IntVar(&o.driftAfter, "synth-drift-after", 0, "inject open-set platform drift after N synthetic sessions (0 = never)")
	fs.Float64Var(&o.adversarial, "synth-adversarial", 0, "fraction of synthetic sessions rendered with an adversarial handshake scenario: ECH, QUIC 0-RTT or connection migration (0 = none)")
	fs.Float64Var(&o.earlyMinMargin, "early-min-margin", 0, "platform-margin floor for degraded classification of ECH/0-RTT flows (0 = default 0.10, negative = accept any margin)")
	fs.BoolVar(&o.noProviderHint, "no-provider-hint", false, "disable the synthetic IP-to-provider hint; ECH and 0-RTT flows then always abstain")

	fs.StringVar(&o.logFormat, "log-format", "text", "structured log output format: text or json")
	fs.BoolVar(&o.version, "version", false, "print build identification and exit")
	return o
}

// serverConfig is the one place flags become server.Config fields. Every
// exported field is set here from a flag, or is one of the programmatic-only
// fields TestServerConfigFieldsHaveFlags lists (the subsystems main builds
// and attaches), so a field cannot be added that merely defaults forever.
func (o *options) serverConfig() server.Config {
	cfg := server.Config{
		Addr:             o.addr,
		Shards:           o.shards,
		MaxFlows:         o.maxFlows,
		IdleTimeout:      o.idleTimeout,
		WindowWidth:      o.window,
		Rate:             o.rate,
		EarlyMinMargin:   o.earlyMinMargin,
		EnablePprof:      o.pprof,
		TraceSampleEvery: o.traceSample,
	}
	// The synthetic stand-in for the deployment's IP-to-CDN knowledge: the
	// generator's provider address plan is the hint. A real tap would plug
	// in its prefix database here.
	if !o.noProviderHint {
		cfg.ProviderHint = tracegen.ProviderOfAddr
	}
	return cfg
}

func main() {
	o := registerFlags(flag.CommandLine)
	flag.Parse()

	if o.version {
		printVersion()
		return
	}

	// Structured logging first: everything after this line — including the
	// ops event journal's mirrored events — speaks slog.
	var handler slog.Handler
	switch o.logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "vpserve: -log-format %q: want text or json\n", o.logFormat)
		os.Exit(2)
	}
	// These once meant "unbounded" / "never" when negative; refuse rather than
	// let an old launch script silently get the defaults instead.
	if o.maxFlows <= 0 || o.idleTimeout <= 0 {
		fmt.Fprintf(os.Stderr, "vpserve: -max-flows %d, -idle-timeout %s: both must be positive (the flow table is always bounded)\n",
			o.maxFlows, o.idleTimeout)
		os.Exit(2)
	}
	logger := slog.New(handler).With("app", "vpserve")
	slog.SetDefault(logger)

	// One journal serves every subsystem: the retrainer records the model
	// lifecycle into it, the server records swaps/drift/health into it and
	// serves it at GET /events, and each event mirrors as a slog line above.
	journal := obs.NewJournal(0, logger)

	bank := loadOrTrainBank(o.model, o.seed, o.trainScale)

	// Model lifecycle: registry, drift monitor, retrainer.
	var (
		reg *registry.Registry
		mon *drift.Monitor
		rt  *registry.Retrainer
	)
	if o.registryDir != "" {
		var err error
		reg, err = registry.New(registry.Config{Dir: o.registryDir})
		exitOn(err)
		if cur := reg.Current(); cur != nil && o.model == "" {
			// A previous run left an active version; prefer it over
			// self-training from scratch.
			bank = cur.Bank
			slog.Info("serving registry version",
				"version", cur.Manifest.ID, "dir", o.registryDir)
		} else {
			reason := "initial (self-trained)"
			if o.model != "" {
				reason = fmt.Sprintf("operator import: %s", o.model)
			}
			m, err := reg.Add(bank, reason, o.seed)
			exitOn(err)
			v, err := reg.Promote(m.ID)
			exitOn(err)
			bank = v.Bank // serve the registry's copy, not the Add argument
			slog.Info("registered bank", "version", m.ID, "dir", o.registryDir)
		}
		mon = drift.NewMonitor(drift.Config{
			Window:         o.driftWindow,
			ConfidenceDrop: o.driftDrop,
		})
	}
	if o.autoRetrain {
		if reg == nil {
			exitOn(fmt.Errorf("-auto-retrain requires -registry-dir"))
		}
		var err error
		rt, err = registry.NewRetrainer(reg, registry.RetrainerConfig{
			Train:    retrainFunc(o.trainScale, o.driftAfter > 0),
			Seed:     o.seed + 1000,
			Cooldown: o.cooldown,
			Events:   journal,
			Gate: registry.Gate{
				SampleRate:   o.shadowRate,
				MinFlows:     o.shadowFlows,
				MinAgreement: o.shadowAgree,
			},
		})
		exitOn(err)
		rt.BindMonitor(mon)
	}

	var src server.Source
	switch {
	case o.pcapPath != "":
		var err error
		src, err = server.OpenFileSource(o.pcapPath)
		exitOn(err)
		slog.Info("replaying capture", "pcap", o.pcapPath)
	default:
		synth := server.NewDriftingSynthSource(o.seed, o.synth, o.driftAfter)
		synth.SetAdversarial(o.adversarial)
		src = synth
		slog.Info("generating synthetic traffic",
			"sessions", sessionsDesc(o.synth), "drift_after", o.driftAfter,
			"adversarial", o.adversarial)
	}

	store, sink, closeStore, err := buildStore(o.window, o.telemetryRetain, o.telemetryTiers, o.telemetryPersist)
	exitOn(err)
	defer closeStore()

	cfg := o.serverConfig()
	cfg.Sink, cfg.Store = sink, store
	cfg.Registry, cfg.Drift, cfg.Retrainer = reg, mon, rt
	cfg.Journal = journal
	srv, err := server.New(bank, src, cfg)
	exitOn(err)
	slog.Info("operations API listening",
		"addr", "http://"+srv.Addr(),
		"endpoints", "/stats /flows /windows /query /events /models /trace /healthz /readyz /metrics")

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if o.exitWhenDone {
		inner := ctx
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
		go func() {
			select {
			case <-srv.ReplayDone():
				slog.Info("replay finished, shutting down")
				cancel()
			case <-inner.Done():
			}
		}()
	}

	exitOn(srv.Run(ctx))

	st := srv.Snapshot()
	slog.Info("done",
		"packets", st.Replay.Packets,
		"batches", st.Ingest.Batches,
		"ignored_frames", st.Ingest.IgnoredFrames,
		"stalls", st.Ingest.Stalls,
		"flows_tracked", st.FlowTable.Inserted,
		"evicted_idle", st.FlowTable.EvictedIdle,
		"evicted_cap", st.FlowTable.EvictedCap,
		"classified", st.FlowVerdicts["classified"],
		"rollup_windows", st.Rollup.Sealed,
		"store_windows", st.Rollup.Store.Tiers[0].Windows,
		"store_evicted", st.Rollup.Store.EvictedCount+st.Rollup.Store.EvictedAge,
		"model", st.Models.ActiveVersion,
		"swaps", st.Models.Swaps,
		"events", st.Events.Total)

	if o.saveOnExit != "" {
		active := bank
		if reg != nil {
			if cur := reg.Current(); cur != nil {
				active = cur.Bank
			}
		}
		blob, err := active.MarshalBinary()
		exitOn(err)
		exitOn(os.WriteFile(o.saveOnExit, blob, 0o644))
		slog.Info("saved active bank",
			"version", st.Models.ActiveVersion, "bytes", len(blob), "path", o.saveOnExit)
	}
}

// printVersion writes the binary's build identification — the same
// internal/obs data /stats serves, available without a running daemon.
func printVersion() {
	bi := obs.ReadBuildInfo()
	fmt.Printf("vpserve %s\n", bi.Version)
	fmt.Printf("  module:   %s\n", bi.Module)
	fmt.Printf("  go:       %s\n", bi.GoVersion)
	if bi.VCSRevision != "" {
		dirty := ""
		if bi.VCSModified {
			dirty = " (modified)"
		}
		fmt.Printf("  revision: %s%s\n", bi.VCSRevision, dirty)
	}
	if bi.VCSTime != "" {
		fmt.Printf("  built:    %s\n", bi.VCSTime)
	}
}

// buildStore assembles the daemon's telemetry window store from the
// -telemetry-* flags: retention (a count or an age) and downsampling tiers
// relative to the rollup width. With -telemetry-persist it also reloads the
// file's history into the store and returns the JSONL sink that appends to
// it, which the server hands every sealed window beside the store (nil
// without the flag).
func buildStore(window time.Duration, retain, tiers, persist string) (*telemetry.Store, telemetry.Sink, func(), error) {
	cfg := telemetry.StoreConfig{}
	if n, err := strconv.Atoi(retain); err == nil {
		if n <= 0 {
			return nil, nil, nil, fmt.Errorf("-telemetry-retain %q: count must be positive", retain)
		}
		cfg.MaxWindows = n
	} else if age, err := time.ParseDuration(retain); err == nil {
		if age <= 0 {
			return nil, nil, nil, fmt.Errorf("-telemetry-retain %q: age must be positive", retain)
		}
		cfg.MaxAge = age
		cfg.MaxWindows = -1 // the age horizon is the sole bound
	} else {
		return nil, nil, nil, fmt.Errorf("-telemetry-retain %q: want a window count (1440) or an age (24h)", retain)
	}

	switch tiers {
	case "auto":
		cfg.Tiers = []time.Duration{10 * window, 60 * window}
	case "none":
	default:
		for _, part := range strings.Split(tiers, ",") {
			d, err := time.ParseDuration(strings.TrimSpace(part))
			if err != nil || d <= 0 {
				return nil, nil, nil, fmt.Errorf("-telemetry-tiers %q: bad width %q (want durations like 10m,1h)", tiers, part)
			}
			// A tier no coarser than the window duplicates raw windows for
			// zero resolution gain; a non-multiple mis-aligns buckets so
			// whole windows land in ranges their flows don't occupy.
			if d <= window || d%window != 0 {
				return nil, nil, nil, fmt.Errorf("-telemetry-tiers %q: width %s must be a multiple of -window %s, coarser than it", tiers, d, window)
			}
			cfg.Tiers = append(cfg.Tiers, d)
		}
	}

	store := telemetry.NewStore(cfg)
	if persist == "" {
		return store, nil, func() {}, nil
	}
	f, err := os.OpenFile(persist, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("-telemetry-persist: %w", err)
	}
	// Reload leaves the file position at EOF, so the sink appends after
	// the restored history.
	n, err := store.Reload(f)
	if err != nil {
		f.Close()
		return nil, nil, nil, fmt.Errorf("-telemetry-persist %s: %v (repair or remove the file)", persist, err)
	}
	if n > 0 {
		slog.Info("reloaded telemetry windows", "windows", n, "path", persist)
	}
	return store, telemetry.NewJSONLSink(f), func() { f.Close() }, nil
}

// retrainFunc regenerates "fresh ground truth" for a replacement bank. The
// synthetic stand-in for the paper's recollect-and-retrain: a lab dataset
// at the configured scale, plus — when the deployment's fleet is known to
// have updated (withDrift) — the open-set perturbed profiles, so the
// candidate covers both current and drifted handshakes.
func retrainFunc(scale float64, withDrift bool) registry.TrainFunc {
	return func(reason string, seed uint64) (*pipeline.Bank, error) {
		ds, err := tracegen.New(seed).LabDataset(scale, fingerprint.Options{})
		if err != nil {
			return nil, err
		}
		if withDrift {
			drifted, err := tracegen.New(seed^0xd81f7).LabDataset(scale, fingerprint.Options{OpenSet: true})
			if err != nil {
				return nil, err
			}
			ds.Flows = append(ds.Flows, drifted.Flows...)
		}
		return pipeline.TrainBank(ds, pipeline.TrainConfig{Forest: ml.ForestConfig{
			NumTrees: 15, MaxDepth: 20, MaxFeatures: 34, Seed: seed}})
	}
}

func loadOrTrainBank(path string, seed uint64, scale float64) *pipeline.Bank {
	if path != "" {
		blob, err := os.ReadFile(path)
		if err != nil {
			exitOn(fmt.Errorf("loading -model: %w", err))
		}
		var bank pipeline.Bank
		if err := bank.UnmarshalBinary(blob); err != nil {
			// Name the file: the gob error alone ("unexpected EOF", format
			// mismatch) doesn't say which of several banks was bad.
			exitOn(fmt.Errorf("loading -model %s: %w", path, err))
		}
		if bank.Version != "" {
			slog.Info("loaded model", "path", path, "version", bank.Version)
		}
		return &bank
	}
	slog.Info("no -model given, self-training a demo bank", "scale", scale)
	ds, err := tracegen.New(seed^0x5eed).LabDataset(scale, fingerprint.Options{})
	exitOn(err)
	bank, err := pipeline.TrainBank(ds, pipeline.TrainConfig{Forest: ml.ForestConfig{
		NumTrees: 15, MaxDepth: 20, MaxFeatures: 34, Seed: seed}})
	exitOn(err)
	return bank
}

func sessionsDesc(n int) string {
	if n <= 0 {
		return "unlimited"
	}
	return fmt.Sprint(n)
}

func exitOn(err error) {
	if err != nil {
		slog.Error("fatal", "error", err)
		os.Exit(1)
	}
}
