package pipeline

import (
	"net/netip"
	"sync/atomic"
	"time"

	"videoplat/internal/features"
	"videoplat/internal/fingerprint"
	"videoplat/internal/flowtable"
	"videoplat/internal/obs"
	"videoplat/internal/packet"
	"videoplat/internal/quicproto"
	"videoplat/internal/tlsproto"
)

// Verdict is the pipeline's terminal decision taxonomy for a flow: not just
// whether classification succeeded, but why it did not. Every flow that
// reaches a terminal state carries exactly one verdict; telemetry folds the
// counts per window so operators can distinguish "the classifier is
// abstaining" (model problem) from "flows never present a handshake"
// (traffic problem).
type Verdict uint8

// Flow verdicts.
const (
	// VerdictPending marks a flow still awaiting a terminal decision (or
	// evicted before reaching one). The zero value, so untouched records are
	// honest about it.
	VerdictPending Verdict = iota
	// VerdictClassified: the confidence selector accepted a composite or
	// partial prediction.
	VerdictClassified
	// VerdictAbstained: classification ran but no objective cleared the
	// confidence threshold — the §4.1 open-set rejection.
	VerdictAbstained
	// VerdictNoHandshake: no ClientHello surfaced in the first packets.
	VerdictNoHandshake
	// VerdictOversized: buffered handshake bytes exceeded maxHelloBytes and
	// the flow was abandoned unclassified.
	VerdictOversized
	// VerdictNotVideo: a handshake parsed but its SNI matched no video
	// provider.
	VerdictNotVideo
	// VerdictError: the classifier bank returned an error (e.g. no models
	// for the provider/transport).
	VerdictError
	// VerdictAbstainedECH: the hello parsed but carried an Encrypted
	// ClientHello extension, so the visible SNI is a fronting public name
	// and the real provider hostname never crossed the tap. The flow joins
	// the open-set bucket unless degraded classification (server-address
	// hint + PlatformMargin gate) accepted it.
	VerdictAbstainedECH
	// VerdictAbstainedZeroRTT: a QUIC flow resumed with 0-RTT early data —
	// no fresh Initial, no observable ClientHello, features never
	// materialized. Open-set unless degraded classification accepted it.
	VerdictAbstainedZeroRTT

	// NumVerdicts is the number of Verdict values, for fixed-size counter
	// arrays.
	NumVerdicts = int(VerdictAbstainedZeroRTT) + 1
)

// String names the verdict; these strings are the stable vocabulary used in
// telemetry windows, /query series and /metrics labels.
func (v Verdict) String() string {
	switch v {
	case VerdictClassified:
		return "classified"
	case VerdictAbstained:
		return "abstained"
	case VerdictNoHandshake:
		return "no-handshake"
	case VerdictOversized:
		return "oversized"
	case VerdictNotVideo:
		return "not-video"
	case VerdictError:
		return "error"
	case VerdictAbstainedECH:
		return "abstained-ech"
	case VerdictAbstainedZeroRTT:
		return "abstained-0rtt"
	default:
		return "pending"
	}
}

// ClassifierRan reports whether the flow's Prediction is the classifier's:
// the confidence selector accepted it (classified) or rejected it
// (abstained). A degraded flow the margin gate turned away leaves with its
// explicit abstain verdict instead, and no prediction.
func (v Verdict) ClassifierRan() bool { return v == VerdictClassified || v == VerdictAbstained }

// ProviderKnown reports whether FlowRecord.Provider names the flow's
// provider: its SNI matched one (classified, abstained, classifier error), or
// a provider hint classified it. For every other verdict Provider holds its
// zero value, which is not a provider.
func (v Verdict) ProviderKnown() bool { return v.ClassifierRan() || v == VerdictError }

// VerdictNames lists every verdict's stable string, indexed by Verdict
// value, for emitters that enumerate the taxonomy (metrics, docs).
func VerdictNames() [NumVerdicts]string {
	var out [NumVerdicts]string
	for i := range out {
		out[i] = Verdict(i).String()
	}
	return out
}

// FlowRecord is the pipeline's per-flow output: provider, classified user
// platform and volumetric telemetry — the rows stored in the paper's
// PostgreSQL database.
type FlowRecord struct {
	// Key is the flow's 5-tuple in client-to-server orientation (see
	// ClientSide) as first seen; a migrated flow keeps its original tuple.
	Key packet.FlowKey
	// Provider means something only when Verdict.ProviderKnown.
	Provider  fingerprint.Provider
	Transport fingerprint.Transport
	SNI       string
	Content   bool // content server (video bytes) vs management front-end

	// Prediction is the classifier's when Verdict.ClassifierRan, zero
	// otherwise.
	Prediction Prediction
	// Verdict is the flow's one decision: classified, abstained, or why it
	// was never classified. It is the only field that says whether the flow
	// was classified. VerdictPending while the flow awaits its handshake.
	Verdict Verdict
	// ModelVersion is the registry version of the bank that classified the
	// flow (empty for unversioned banks), so downstream telemetry remains
	// attributable to the exact model that produced it across hot-swaps.
	ModelVersion string

	FirstSeen, LastSeen    time.Time
	BytesDown, BytesUp     int64
	PacketsDown, PacketsUp int

	// ClassifyNanos is how long the flow's classification took (encode +
	// inference), zero for flows never classified. It travels with the
	// record so telemetry rollups can fold per-window latency summaries.
	ClassifyNanos int64
}

// Duration is the observed flow duration.
func (r *FlowRecord) Duration() time.Duration { return r.LastSeen.Sub(r.FirstSeen) }

// MbpsDown is the mean downstream bandwidth in Mbit/s.
func (r *FlowRecord) MbpsDown() float64 {
	d := r.Duration().Seconds()
	if d <= 0 {
		return 0
	}
	return float64(r.BytesDown) * 8 / 1e6 / d
}

type flowState struct {
	rec       FlowRecord
	asm       hsAssembler    // incremental handshake assembly state
	clientKey packet.FlowKey // client-to-server direction of the current tuple: ClientSide of it
	done      bool           // finalize ran: rec.Verdict is terminal
	span      *obs.Span      // lifecycle trace, non-nil only for sampled flows
	// cids lists this flow's registrations in the pipeline's CID index so
	// eviction can unregister them.
	cids []cidKey
}

// Config bounds a Pipeline's flow table for long-running deployments.
// The zero value reproduces the batch behaviour: every flow is kept, which
// is fine for finite traces but leaks under a live tap.
type Config struct {
	// MaxFlows caps tracked flows (LRU eviction on overflow). 0 = unbounded.
	MaxFlows int
	// ResultsBuffer is the capacity of a Sharded pipeline's Results channel.
	// 0 selects DefaultResultsBufferPerShard per shard, so wider deployments
	// get proportionally more burst headroom before best-effort delivery
	// starts dropping (see IngestStats.DroppedResults). Ignored by a plain
	// Pipeline.
	ResultsBuffer int
	// IdleTimeout retires flows with no packet for this long, measured in
	// packet time so trace replay and live capture behave identically.
	// 0 = never.
	IdleTimeout time.Duration
	// OnEvict, if non-nil, receives a copy of each evicted flow's final
	// record — identical to what Flows() would have reported — so evicted
	// telemetry can reach a sink instead of vanishing. Called synchronously
	// from HandlePacket (for Sharded, from the owning shard's goroutine).
	OnEvict func(rec *FlowRecord, reason flowtable.Reason)
	// OnClassify, if non-nil, is invoked once per classification attempt
	// with a copy of the flow record (after the confidence selector ran)
	// and the assembled handshake, letting a shadow evaluator re-classify
	// the same flow with a candidate bank. The HandshakeInfo is lent for
	// the duration of the call. What it points into is the flow's own
	// handshake buffer, which nothing reuses, so a hook that kept it would
	// read the same bytes later — and hold that buffer, a flow's worth of
	// handshake, for as long as it did (TestAssembledHelloSurvivesLaterFlows).
	// Called synchronously from HandlePacket; for Sharded it runs on shard
	// goroutines and must be safe for concurrent use.
	OnClassify func(rec *FlowRecord, hs *features.HandshakeInfo)
	// Observer, if non-nil, receives per-stage latency samples (handshake
	// assembly, classification; for Sharded also ingest decode and shard
	// queue wait). Recording is lock-free and allocation-free, so leaving
	// an observer attached in production costs only the clock reads; a nil
	// observer reduces the instrumentation to one pointer check per frame.
	Observer *obs.PipelineObserver
	// Tracer, if non-nil, samples flow lifecycles: every Nth new flow
	// carries a span recording stage timings, shard placement and its
	// terminal verdict, retained in the tracer's ring and slowest-K set.
	// Must be safe for concurrent use when shared across shards (obs.Tracer
	// is).
	Tracer *obs.Tracer
	// ProviderHint, if non-nil, maps a server address to a provider — the
	// IP-to-CDN knowledge an ISP derives from BGP/prefix lists. It enables
	// degraded classification of flows whose hello is encrypted (ECH) or
	// absent (0-RTT resumption): the pipeline classifies on the transport
	// features it did see, under the hinted provider's models. nil disables
	// degraded classification; such flows abstain into the open-set bucket.
	// For Sharded it runs on shard goroutines and must be safe for
	// concurrent use.
	ProviderHint func(addr netip.Addr) (fingerprint.Provider, bool)
	// EarlyMinMargin gates degraded (partial-feature) classifications: the
	// prediction's PlatformMargin (top-1/top-2 probability gap) must reach
	// this floor or the flow abstains. 0 selects DefaultEarlyMinMargin;
	// negative accepts any margin the confidence selector passes.
	EarlyMinMargin float64

	// shardID and queueDepth are set by NewShardedWithConfig on each
	// shard's private Config copy so sampled spans can record where the
	// flow ran and how deep its shard's inbox was at admission.
	shardID    int
	queueDepth func() int

	// Test seams, not options: in-package tests shrink shardQueueDepth and
	// maxHelloBytes to reach a full inbox or an oversized flow with a few
	// small frames. Zero — all that code outside this package can leave
	// here — selects the constant.
	inboxDepth int
	helloCap   int
}

// maxHelloBytes caps the client handshake bytes buffered per flow while
// waiting for a complete ClientHello: four maximum-size TLS records, where
// a real hello is a fraction of one, yet tight enough that a million
// tracked flows cannot pin gigabytes. A flow over it is abandoned and
// finalized as VerdictOversized — without the cap a peer streaming endless
// handshake records down one flow grows that flow's buffer until the
// 8-frame heuristic trips, and frames can be arbitrarily large. A parser
// bound, not a deployment setting: no traffic mix wants another value.
const maxHelloBytes = 64 << 10

// DefaultEarlyMinMargin is the PlatformMargin floor for degraded
// classifications when Config.EarlyMinMargin is zero. Partial-feature
// predictions run on a handful of transport attributes, so a near-tie
// between the top two platforms is noise, not signal; requiring a 10-point
// probability gap keeps the degraded path from laundering coin flips into
// VerdictClassified.
const DefaultEarlyMinMargin = 0.10

// maxFlowCIDs caps per-flow CID registrations. A handshake exposes at most
// a few IDs (client DCID/SCID, the server's chosen CID); anything past that
// is a peer churning IDs to bloat the index.
const maxFlowCIDs = 8

// Pipeline is the streaming packet processor of Fig 4. Feed packets with
// HandlePacket; classified flows are returned as events and accumulated for
// Flows(). Not safe for concurrent use — shard by flow hash across instances
// for multi-core deployments, as the DPDK prototype does — with two
// exceptions: SwapBank may be called from any goroutine to hot-swap the
// classifier bank without pausing packet processing, and Stats and
// TableStats may be read from any goroutine.
type Pipeline struct {
	bank atomic.Pointer[Bank]

	cfg       Config
	flows     *flowtable.Table[*flowState]
	lastSweep time.Time

	// assembly is what every flow's hsAssembler.consume borrows for a frame
	// and keeps nothing of (the flow copies its handshake bytes into its own
	// buffer), so one per pipeline is safe for the same reason scratch is.
	assembly asmScratch
	// scratch holds the classification path's reusable buffers (encoded
	// rows, forest probabilities, extension-walk scratch). One per pipeline
	// is safe: HandlePacket is single-goroutine by contract, and each shard
	// of a Sharded owns its own Pipeline.
	scratch ClassifyScratch

	// cids indexes the QUIC connection IDs observed on live flows back to
	// their canonical flow key, so a packet arriving on an unknown 5-tuple
	// whose CID is known re-keys the existing flow (connection migration)
	// instead of spawning a ghost. Owned by the HandlePacket goroutine;
	// allocated lazily on the first long-header frame.
	cids cidIndex[packet.FlowKey]

	// batchQueueWait is the shard-queue wait of the batch currently being
	// processed, set by the shard worker before it replays the batch's
	// frames so sampled spans can attribute the wait to each frame. Owned
	// by the single goroutine calling HandlePacket/handleKeyed; always zero
	// for a plain (unsharded) pipeline.
	batchQueueWait int64

	// The counters behind Stats. Written only by the HandlePacket
	// goroutine; atomics so a snapshot may be taken from any other.
	packets         atomic.Uint64
	verdicts        [NumVerdicts]atomic.Uint64              // bumped by finalize alone
	classifiedBy    [fingerprint.NumProviders]atomic.Uint64 // likewise
	earlyClassified atomic.Uint64
}

// Stats is a point-in-time snapshot of a Pipeline's counters. All fields are
// monotonic.
type Stats struct {
	// Packets counts frames offered to HandlePacket, decodable or not.
	Packets uint64
	// Verdicts counts finalized flows by terminal verdict. Every flow is
	// finalized exactly once — when its handshake resolves, or at eviction
	// if it never did — so once the table has drained the counts sum to
	// TableStats().Inserted. Verdicts[VerdictPending] is always zero.
	Verdicts [NumVerdicts]uint64
	// ClassifiedByProvider splits Verdicts[VerdictClassified] by the flow's
	// provider: the per-provider stream counts of the paper's §5, exact
	// because finalize bumps them beside the verdict.
	ClassifiedByProvider [fingerprint.NumProviders]uint64
	// EarlyClassified counts degraded (partial-feature) classifications
	// accepted by the EarlyMinMargin gate; they are also counted in
	// Verdicts[VerdictClassified].
	EarlyClassified uint64
}

// Stats snapshots the pipeline's counters. Safe from any goroutine. A
// counter is read only after every counter it must not exceed, so the
// snapshot is consistent while flows are finalized under it: finalize bumps
// a flow's verdict before its provider and its early count, so those are
// read first and never exceed Verdicts[VerdictClassified].
func (p *Pipeline) Stats() Stats {
	var st Stats
	for i := range st.ClassifiedByProvider {
		st.ClassifiedByProvider[i] = p.classifiedBy[i].Load()
	}
	st.EarlyClassified = p.earlyClassified.Load()
	for v := range st.Verdicts {
		st.Verdicts[v] = p.verdicts[v].Load()
	}
	st.Packets = p.packets.Load()
	return st
}

// New returns a Pipeline over a trained bank with an unbounded flow table.
func New(bank *Bank) *Pipeline { return NewWithConfig(bank, Config{}) }

// NewWithConfig returns a Pipeline whose flow table is bounded by cfg.
func NewWithConfig(bank *Bank, cfg Config) *Pipeline {
	if cfg.helloCap == 0 {
		cfg.helloCap = maxHelloBytes
	}
	p := &Pipeline{cfg: cfg}
	p.bank.Store(bank)
	p.flows = flowtable.New[*flowState](
		flowtable.Config{MaxFlows: cfg.MaxFlows, IdleTimeout: cfg.IdleTimeout},
		func(_ packet.FlowKey, st *flowState, reason flowtable.Reason) {
			p.unregisterCIDs(st)
			if !st.done {
				// Evicted before the handshake resolved: the classifier never
				// saw this flow. With only 0-RTT early data seen the hello was
				// never coming, so the flow leaves as an explicit resumption
				// abstain rather than a generic no-handshake.
				p.finishSpan(st, "evicted")
				v := VerdictNoHandshake
				if st.asm.zeroRTT {
					v = VerdictAbstainedZeroRTT
				}
				p.finalize(st, v)
			}
			if cfg.OnEvict != nil {
				rec := st.rec
				cfg.OnEvict(&rec, reason)
			}
		})
	return p
}

// finalize is the one exit of a flow's decision: every terminal site — no
// handshake, oversized, not video, classifier error, classified, abstained,
// and eviction of a flow still undecided — ends here, so a flow carries
// exactly one verdict and is counted exactly once. Anything else the record
// should say (prediction, provider, model version) must be set before the
// call. The flow's buffered handshake bytes are released: st.asm, and any
// HandshakeInfo pointing into it, is dead afterwards.
func (p *Pipeline) finalize(st *flowState, v Verdict) {
	st.done = true
	st.rec.Verdict = v
	p.verdicts[v].Add(1) // before the provider split: see Stats
	// A ProviderHint may name a provider outside the studied four.
	if prov := int(st.rec.Provider); v == VerdictClassified && prov < len(p.classifiedBy) {
		p.classifiedBy[prov].Add(1)
	}
	if st.span != nil {
		label := v.String()
		switch v {
		case VerdictClassified:
			label = st.rec.Prediction.Device + "/" + st.rec.Prediction.Agent
		case VerdictAbstained:
			label = "unknown"
		}
		p.finishSpan(st, label)
	}
	st.asm = hsAssembler{}
}

// finishSpan completes a sampled flow's span with its terminal label and
// hands it back to the tracer. No-op for unsampled flows.
func (p *Pipeline) finishSpan(st *flowState, label string) {
	if st.span == nil {
		return
	}
	sp := st.span
	st.span = nil
	if sp.SNI == "" {
		sp.SNI = st.rec.SNI
	}
	if sp.ModelVersion == "" {
		sp.ModelVersion = st.rec.ModelVersion
	}
	sp.Verdict = label
	p.cfg.Tracer.Finish(sp)
}

// TableStats reports the flow table's occupancy and eviction counters.
// Safe to call from any goroutine while the pipeline is running.
func (p *Pipeline) TableStats() flowtable.Stats { return p.flows.Stats() }

// Bank returns the classifier bank currently serving classifications. Safe
// from any goroutine.
func (p *Pipeline) Bank() *Bank { return p.bank.Load() }

// SwapBank atomically replaces the classifier bank. Classification never
// blocks on a swap: a classification loads the bank pointer once, so a flow
// classifying when the swap lands completes coherently against the bank it
// started with and the next one sees the new bank. Safe from any goroutine.
func (p *Pipeline) SwapBank(bank *Bank) { p.bank.Store(bank) }

// HandlePacket processes one frame. It returns a non-nil FlowRecord exactly
// when the frame completed a flow's classification. The frame gets the same
// per-packet decode a Sharded's ingest gives it (packet.Summary) and goes on
// to handleKeyed as a shard worker's frames do, whole. The pipeline copies
// anything it retains past the call, so the caller may recycle frame as soon
// as it returns.
func (p *Pipeline) HandlePacket(ts time.Time, frame []byte) (*FlowRecord, error) {
	var sum packet.Summary
	if !sum.Decode(frame) {
		p.packets.Add(1)
		return nil, nil // frames with no TCP/UDP 5-tuple are not errors for the tap
	}
	payload := frame[sum.PayloadOff : sum.PayloadOff+sum.PayloadLen]
	return p.handleKeyed(ts, frame, payload, sum.Key, sum.Reversed, sum.PayloadLen)
}

// ClientSide orients a port-443 flow key client to server: the client is the
// endpoint talking to :443, whichever side the tap happened to see first —
// a server flight that overtakes the SYN on a two-tap merge, or a daemon
// started mid-flow, must not swap upstream and downstream. With both ports
// 443 the packet's own direction stands. Every assignment of
// flowState.clientKey goes through here, so a segment from the :443 side is
// never the client direction and never reaches handshake assembly — the
// fact Sharded's ingest relies on when it ships such segments without their
// payload.
func ClientSide(key packet.FlowKey) packet.FlowKey {
	if key.DstPort != 443 && key.SrcPort == 443 {
		return key.Reverse()
	}
	return key
}

// handleKeyed is the flow path, fed from a frame's packet.Summary: key as on
// the wire, reversed saying the canonical key is key.Reverse(), payloadLen
// the transport payload's length on the wire — everything the flow stage
// needs of a decode, small enough to travel through a shard queue. payload
// is the frame's transport payload, or the leading part of it that Sharded's
// ingest kept (see Sharded.decode): the CID index reads at most its first 21
// bytes of a short header and the long-header prefix, so a cut payload serves
// it; payloadLen is what the byte counters use. frame (the kept bytes, for a
// shard worker) is for handshake assembly alone: a client-direction frame of
// a flow with no verdict yet gets the full decode there (hsAssembler.consume)
// — a few frames per flow, never cut — and its payload bytes are copied into
// flow state until a ClientHello parses out. A handshake that completes is
// classified here, on arrival, and the flow finalized before the call
// returns.
func (p *Pipeline) handleKeyed(ts time.Time, frame, payload []byte, key packet.FlowKey, reversed bool, payloadLen int) (*FlowRecord, error) {
	p.packets.Add(1)
	if !isVideoPort(key) {
		return nil, nil
	}
	p.maybeSweep(ts)
	canon := key
	if reversed {
		canon = key.Reverse()
	}
	st, ok := p.flows.Touch(canon, ts)
	if !ok {
		st, ok = p.migrateFlow(key, canon, payload, ts)
	}
	if !ok {
		st = &flowState{clientKey: ClientSide(key)}
		st.rec.Key = st.clientKey
		st.rec.FirstSeen = ts
		st.asm.init()
		if p.cfg.Tracer != nil {
			if sp := p.cfg.Tracer.Admit(); sp != nil {
				sp.Flow = canon.String()
				sp.Shard = p.cfg.shardID
				if p.cfg.queueDepth != nil {
					sp.QueueDepth = p.cfg.queueDepth()
				}
				sp.FirstPacket = ts
				st.span = sp
			}
		}
		p.flows.Put(canon, st, ts)
	}
	if st.span != nil {
		st.span.Frames++
		st.span.QueueWaitNS += p.batchQueueWait
	}

	// Register QUIC connection IDs from long-header frames — both
	// directions, since the server's flight is what announces the server's
	// chosen CID — so a later 5-tuple change is recognized as migration
	// instead of spawning a ghost flow. Runs even for flows already
	// classified: migration happens mid-stream, long after the verdict.
	if key.Proto == packet.ProtoUDP && quicproto.IsLongHeader(payload) {
		p.learnCIDs(st, canon, payload)
	}

	// Telemetry split by direction.
	st.rec.LastSeen = ts
	if key == st.clientKey {
		st.rec.BytesUp += int64(payloadLen)
		st.rec.PacketsUp++
	} else {
		st.rec.BytesDown += int64(payloadLen)
		st.rec.PacketsDown++
	}

	if st.done {
		return nil, nil
	}

	// Handshake splitter: only client-direction bytes can advance handshake
	// assembly (the ClientHello rides the client side), so server packets on
	// a still-unclassified flow cost nothing beyond the telemetry above.
	if key != st.clientKey {
		return nil, nil
	}
	var asmStart time.Time
	timed := p.cfg.Observer != nil || st.span != nil
	if timed {
		asmStart = time.Now()
	}
	complete := st.asm.consume(&p.assembly, frame)
	if timed {
		d := time.Since(asmStart)
		p.cfg.Observer.Record(obs.StageAssembly, d)
		if st.span != nil {
			st.span.AssemblyNS += int64(d)
		}
	}
	if !complete {
		switch {
		case st.asm.giveUp, st.asm.zeroRTT && st.asm.frames > 8:
			// 0-RTT resumption: the hello is not coming. Decide on partial
			// features or abstain explicitly into the open-set bucket.
			return p.finishDegraded(st, &st.asm.info, VerdictAbstainedZeroRTT)
		case st.asm.frames > 8:
			// No hello in the first packets: not a video flow.
			p.finalize(st, VerdictNoHandshake)
		case st.asm.buffered() > p.cfg.helloCap:
			// Oversized handshake: abandon, don't buffer more.
			p.finalize(st, VerdictOversized)
		}
		return nil, nil
	}
	info := st.asm.finish()

	sni := info.Hello.ServerName()
	prov, content, ok := MatchProvider(sni)
	if !ok {
		if info.Hello.HasExtension(tlsproto.ExtEncryptedClientHello) {
			// ECH: the visible SNI is a fronting public name; the real
			// hostname rides encrypted in the hello. The outer hello is
			// still a full client fingerprint, so degraded classification
			// under a hinted provider sees everything but the SNI.
			st.rec.SNI = sni // the fronted (outer) name — observable truth
			return p.finishDegraded(st, info, VerdictAbstainedECH)
		}
		if st.span != nil {
			st.span.SNI = sni // the record stays SNI-less for non-video flows
		}
		p.finalize(st, VerdictNotVideo)
		return nil, nil
	}
	st.rec.SNI = sni
	st.rec.Provider = prov
	st.rec.Content = content
	st.rec.Transport = transportOf(info)

	bank := p.bank.Load() // one load: the whole classification uses one bank
	var clStart time.Time
	if timed {
		clStart = time.Now()
	}
	pred, err := bank.ClassifyHandshake(prov, st.rec.Transport, info, &p.scratch)
	if timed {
		d := time.Since(clStart)
		p.cfg.Observer.Record(obs.StageClassify, d)
		st.rec.ClassifyNanos = int64(d)
		if st.span != nil {
			st.span.ClassifyNS += int64(d)
		}
	}
	if err != nil {
		if st.span != nil {
			st.span.ModelVersion = bank.Version
		}
		p.finalize(st, VerdictError)
		return nil, err
	}
	st.rec.Prediction = pred
	st.rec.ModelVersion = bank.Version
	hs := *info // finalize releases the assembler info points into; OnClassify runs after it
	p.finalize(st, pred.Verdict())
	out := st.rec // copy at classification time
	if p.cfg.OnClassify != nil {
		hookRec, hookHS := st.rec, hs
		p.cfg.OnClassify(&hookRec, &hookHS)
	}
	return &out, nil
}

// transportOf names the transport an assembled (or partial) handshake rode.
func transportOf(info *features.HandshakeInfo) fingerprint.Transport {
	if info.QUIC {
		return fingerprint.QUIC
	}
	return fingerprint.TCP
}

// hintFor resolves the provider hint for a flow's server side, which
// ClientSide makes the destination of clientKey.
func (p *Pipeline) hintFor(st *flowState) (fingerprint.Provider, bool) {
	if p.cfg.ProviderHint == nil {
		return 0, false
	}
	return p.cfg.ProviderHint(st.clientKey.Dst)
}

// earlyMinMargin resolves the Config.EarlyMinMargin default.
func (p *Pipeline) earlyMinMargin() float64 {
	switch {
	case p.cfg.EarlyMinMargin == 0:
		return DefaultEarlyMinMargin
	case p.cfg.EarlyMinMargin < 0:
		return 0
	}
	return p.cfg.EarlyMinMargin
}

// finishDegraded terminates a flow whose decisive features never surfaced —
// an ECH hello with no real SNI, or a 0-RTT resumption with no hello at
// all. With a provider hint available the flow is classified once, on
// whatever features did materialize (for 0-RTT they are fixed by the flow's
// first packet, so an earlier look would have seen the same), by the bank
// whose Version the record is then stamped with. The prediction is accepted
// only when it clears both the confidence selector and the EarlyMinMargin
// gate; otherwise the flow abstains into the open-set bucket with the
// explicit fallback verdict. Config.OnClassify is deliberately not invoked:
// drift monitors and shadow evaluators compare full-feature
// classifications, and feeding them partial-feature records would poison
// both baselines.
func (p *Pipeline) finishDegraded(st *flowState, info *features.HandshakeInfo, fallback Verdict) (*FlowRecord, error) {
	st.rec.Transport = transportOf(info)
	prov, hinted := p.hintFor(st)
	if !hinted {
		p.finalize(st, fallback)
		return nil, nil
	}
	bank := p.bank.Load() // one load: the prediction and its version stamp
	pred, err := bank.ClassifyHandshake(prov, st.rec.Transport, info, &p.scratch)
	if err != nil || pred.Status == Unknown || pred.PlatformMargin < p.earlyMinMargin() {
		p.finalize(st, fallback)
		return nil, nil
	}
	st.rec.Provider = prov
	st.rec.Prediction = pred
	st.rec.ModelVersion = bank.Version
	p.finalize(st, VerdictClassified)
	p.earlyClassified.Add(1) // after the verdict: see Stats
	out := st.rec
	return &out, nil
}

// migrateFlow resolves a flow-table miss against the CID index: when the
// frame's QUIC connection ID belongs to a live flow, that flow is re-keyed
// onto the new 5-tuple (connection migration) and keeps its assembler
// state, record and telemetry — one FlowRecord per logical flow, not a
// ghost per path. ok is false when the frame matches no known CID. payload
// may be cut as handleKeyed describes.
func (p *Pipeline) migrateFlow(key, canon packet.FlowKey, payload []byte, ts time.Time) (*flowState, bool) {
	if p.cids.len() == 0 || key.Proto != packet.ProtoUDP || len(payload) == 0 {
		return nil, false
	}
	oldCanon, ok := p.cids.lookup(payload)
	if !ok || !p.flows.Rekey(oldCanon, canon) {
		return nil, false
	}
	st, ok := p.flows.Touch(canon, ts)
	if !ok {
		return nil, false // unreachable: Rekey just installed canon
	}
	// The client now speaks from the migrated tuple (the 443 side stays the
	// server); re-pointing clientKey keeps the direction split and any
	// still-running handshake assembly correct for everything that follows.
	st.clientKey = ClientSide(key)
	// Follow the flow in the CID index so a second migration re-keys again
	// and eviction cleans up under the current key.
	for _, ck := range st.cids {
		p.cids.put(ck, canon)
	}
	return st, true
}

// learnCIDs registers a long-header frame's connection IDs for the flow.
func (p *Pipeline) learnCIDs(st *flowState, canon packet.FlowKey, payload []byte) {
	ids, err := quicproto.ParseLongHeaderCIDs(payload)
	if err != nil {
		return
	}
	p.learnCID(st, canon, ids.DCID)
	p.learnCID(st, canon, ids.SCID)
}

func (p *Pipeline) learnCID(st *flowState, canon packet.FlowKey, cid []byte) {
	ck, ok := mkCIDKey(cid)
	if !ok || len(st.cids) >= maxFlowCIDs {
		return
	}
	if existing, hit := p.cids.get(cid); hit && existing == canon {
		return
	}
	p.cids.put(ck, canon)
	st.cids = append(st.cids, ck)
}

// unregisterCIDs removes a flow's CID index entries (eviction cleanup).
func (p *Pipeline) unregisterCIDs(st *flowState) {
	for _, ck := range st.cids {
		p.cids.delete(ck)
	}
	st.cids = nil
}

// noteQueueWait records how long the batch about to be replayed waited in
// its shard's inbox, so sampled spans can attribute the wait per frame.
// Called by the owning shard worker only (same goroutine as handleKeyed).
func (p *Pipeline) noteQueueWait(d time.Duration) { p.batchQueueWait = int64(d) }

// isVideoPort is the port filter of the paper's tap: the providers' video
// flows all ride 443. One predicate serves both the per-pipeline filter and
// Sharded's ingest-time drop, so the policy cannot drift between them.
func isVideoPort(key packet.FlowKey) bool {
	return key.SrcPort == 443 || key.DstPort == 443
}

// maybeSweep runs idle expiry at most once per quarter idle-timeout,
// driven by packet timestamps. Evictions therefore lag idleness by at most
// a quarter timeout of trace time.
func (p *Pipeline) maybeSweep(ts time.Time) {
	if p.cfg.IdleTimeout <= 0 {
		return
	}
	if p.lastSweep.IsZero() {
		p.lastSweep = ts
		return
	}
	if ts.Sub(p.lastSweep) >= p.cfg.IdleTimeout/4 {
		p.flows.ExpireIdle(ts)
		p.lastSweep = ts
	}
}

// Flows returns the tracked per-flow records (classified or not), with
// final telemetry. Flows already evicted from a bounded table are not
// included — they were delivered to Config.OnEvict with the same record
// contents at eviction time, so OnEvict output plus Flows() covers every
// flow exactly once. A record taken here is not finalized: a flow still
// waiting for its handshake reads VerdictPending (Sharded.Drain finalizes
// it).
func (p *Pipeline) Flows() []*FlowRecord {
	out := make([]*FlowRecord, 0, p.flows.Len())
	p.flows.Range(func(_ packet.FlowKey, st *flowState) bool {
		rec := st.rec
		out = append(out, &rec)
		return true
	})
	return out
}
