package pipeline

import (
	"math"
	"net/netip"
	"strings"
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
	// VerdictOversized: the handshake bytes held went over a reassembly
	// bound (maxHelloBytes, maxAhead) and the flow was abandoned.
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

	// FirstSeen and LastSeen are the earliest and latest packet times of the
	// flow, whatever order its frames arrived in, in UTC. A time outside
	// what int64 Unix nanoseconds hold reads as the nearest one they do
	// (flowtable.UnixNano).
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

// flowState is a tracked flow's hot record: what it keeps for its whole
// life, which for a video session is minutes to hours after the few packets
// that decide it. Everything that matters only until the verdict — the
// handshake assembler and a sampled flow's span — is in cold, which finalize
// drops, so a decided flow is this record alone. Each fact about the flow is
// kept once: whether it is decided is verdict (finalize writes it), how many
// client frames assembly has seen is packetsUp, and a sampled span takes its
// frame count, first packet and classify time from here when it finishes
// (finishSpan). record builds the FlowRecord every exit hands out.
//
// The flow's tuple is not here: the flow table holds it, as the canonical key
// every caller of record passes in, and only a migrated flow keeps the tuple
// it was first seen on (orig). Packet times are int64 Unix nanoseconds
// (flowtable.UnixNano), 8 bytes where a time.Time takes 24.
//
// The fields every packet of a decided flow reads or writes come first, so
// they share the record's first 72 bytes, two cache lines at most: verdict,
// clientReversed, cold (nil), the timestamps and the counters.
type flowState struct {
	verdict Verdict
	// clientReversed says the current tuple's client-to-server direction
	// (ClientSide of it) is its canonical key reversed, so a frame is
	// client-direction exactly when its Summary.Reversed equals it.
	clientReversed bool
	provider       fingerprint.Provider
	transport      fingerprint.Transport
	content        bool
	status         Status
	// label is the id in Pipeline.labels of the prediction's platform,
	// device and agent names: 0, no names, unless the classifier ran.
	label uint32
	// cold is the flow's assembly state, non-nil exactly while verdict is
	// VerdictPending.
	cold                   *flowCold
	firstSeen, lastSeen    int64 // UnixNano
	bytesDown, bytesUp     int64
	packetsDown, packetsUp int

	// orig is FlowRecord.Key of a flow that migrated, the client-to-server
	// tuple it was first seen on; nil for every other flow, whose Key is its
	// canonical table key in client orientation (clientKey).
	orig                                                *packet.FlowKey
	sni, modelVersion                                   string
	classifyNanos                                       int64
	platformConf, platformMargin, deviceConf, agentConf float64
	// cids lists this flow's registrations in the pipeline's CID index so
	// eviction can unregister them.
	cids []cidKey
}

// flowCold is what a flow needs only until its verdict. It is allocated with
// the flow, since every flow starts undecided, and finalize lets it go.
type flowCold struct {
	asm  hsAssembler // incremental handshake assembly state
	span *obs.Span   // lifecycle trace, non-nil only for sampled flows
}

// clientKey is the flow's current tuple in client-to-server orientation,
// given canon, its canonical key in the flow table.
func (st *flowState) clientKey(canon packet.FlowKey) packet.FlowKey {
	if st.clientReversed {
		return canon.Reverse()
	}
	return canon
}

// record builds the flow's FlowRecord, the one shape every exit hands out:
// Config.OnEvict, Config.OnClassify, HandlePacket's return and Flows. canon
// is the flow's canonical key in the flow table.
func (st *flowState) record(canon packet.FlowKey, labels *labelTable) FlowRecord {
	key := st.clientKey(canon)
	if st.orig != nil {
		key = *st.orig
	}
	return FlowRecord{
		Key:           key,
		Provider:      st.provider,
		Transport:     st.transport,
		SNI:           st.sni,
		Content:       st.content,
		Prediction:    st.prediction(labels),
		Verdict:       st.verdict,
		ModelVersion:  st.modelVersion,
		FirstSeen:     time.Unix(0, st.firstSeen).UTC(),
		LastSeen:      time.Unix(0, st.lastSeen).UTC(),
		BytesDown:     st.bytesDown,
		BytesUp:       st.bytesUp,
		PacketsDown:   st.packetsDown,
		PacketsUp:     st.packetsUp,
		ClassifyNanos: st.classifyNanos,
	}
}

// prediction rebuilds the flow's Prediction: the zero value unless
// setPrediction stored one.
func (st *flowState) prediction(labels *labelTable) Prediction {
	l := labels.at(st.label)
	return Prediction{
		Status:         st.status,
		Platform:       l.platform,
		PlatformConf:   st.platformConf,
		PlatformMargin: st.platformMargin,
		Device:         l.device,
		DeviceConf:     st.deviceConf,
		Agent:          l.agent,
		AgentConf:      st.agentConf,
	}
}

// setPrediction stores pred in the flow, its names as one label id.
func (st *flowState) setPrediction(pred *Prediction, labels *labelTable) {
	st.status = pred.Status
	st.label = labels.intern(predLabels{pred.Platform, pred.Device, pred.Agent})
	st.platformConf, st.platformMargin = pred.PlatformConf, pred.PlatformMargin
	st.deviceConf, st.agentConf = pred.DeviceConf, pred.AgentConf
}

// predLabels is a prediction's class names.
type predLabels struct{ platform, device, agent string }

// labelTable interns prediction names, so a flow holds one id in place of
// three strings drawn from a few dozen class names. It is keyed by value:
// it grows with the distinct names the banks it served use, not with how
// many banks were swapped in, and it keeps its own copies of the names, so
// no flow holds a retired bank's memory. Id 0 is the empty triple, a zero
// flowState's. Owned by the goroutine calling HandlePacket, as the flow
// table is.
type labelTable struct {
	ids     map[predLabels]uint32
	entries []predLabels // by id
}

func newLabelTable() labelTable {
	return labelTable{ids: map[predLabels]uint32{{}: 0}, entries: []predLabels{{}}}
}

// intern returns l's id, adding it on first sight.
func (t *labelTable) intern(l predLabels) uint32 {
	id, ok := t.ids[l]
	if !ok {
		l = predLabels{strings.Clone(l.platform), strings.Clone(l.device), strings.Clone(l.agent)}
		id = uint32(len(t.entries))
		t.entries = append(t.entries, l)
		t.ids[l] = id
	}
	return id
}

// at returns the names interned under id.
func (t *labelTable) at(id uint32) predLabels { return t.entries[id] }

// Config bounds a Pipeline's flow table for long-running deployments.
// The zero value reproduces the batch behaviour: every flow is kept, which
// is fine for finite traces but leaks under a live tap.
type Config struct {
	// MaxFlows caps tracked flows (LRU eviction on overflow). 0 = unbounded.
	MaxFlows int
	// ResultsBuffer is the capacity of a Sharded pipeline's Results channel.
	// 0 selects DefaultResultsBufferPerShard per shard. Past it, delivery
	// drops records (IngestStats.DroppedResults) even while a consumer
	// drains, so OnEvict, not Results, is the complete stream (see Sharded).
	// Ignored by a plain Pipeline.
	ResultsBuffer int
	// IdleTimeout retires flows with no packet for this long, measured in
	// packet time so trace replay and live capture behave identically.
	// 0 = never.
	IdleTimeout time.Duration
	// OnEvict, if non-nil, receives a copy of each flow's finalized record
	// as the flow leaves the table — idle, over MaxFlows, or emptied by
	// Drain — with its one terminal verdict: a flow still undecided is
	// resolved on the way out. It is the one place every flow's record
	// comes out, exactly once. Called synchronously from HandlePacket or
	// Drain (for Sharded, from the owning shard's goroutine).
	OnEvict func(rec *FlowRecord, reason flowtable.Reason)
	// OnClassify, if non-nil, is invoked once per classification attempt
	// with a copy of the flow record (after the confidence selector ran)
	// and the assembled handshake, letting a shadow evaluator re-classify
	// the same flow with a candidate bank. The HandshakeInfo is lent for
	// the duration of the call: what it points into — the flow's handshake
	// buffer, ClientHello and transport parameters — goes back to the
	// pipeline when the flow is decided, and a later flow's assembly
	// reuses it once the call returns, so a hook must copy what it keeps
	// (TestRecycledAssemblyMatchesFresh).
	// Called synchronously from HandlePacket; for Sharded it runs on shard
	// goroutines and must be safe for concurrent use.
	OnClassify func(rec *FlowRecord, hs *features.HandshakeInfo)
	// Observer, if non-nil, receives per-stage latency samples (handshake
	// assembly, classification; for Sharded also ingest decode and shard
	// queue wait). Recording is lock-free and allocation-free, so leaving
	// an observer attached in production costs only the clock reads
	// (obs.Nanotime, one monotonic read each): two per ingest batch, the
	// second also stamping its shard messages, one per message on its
	// worker, two per client frame of an undecided flow and two per
	// classification. A nil observer reduces the instrumentation to a
	// pointer check per batch and per undecided client frame.
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

// DefaultMaxFlows and DefaultIdleTimeout are the flow-table bounds of a
// consumer whose input has no end in sight: the daemon, which splits
// MaxFlows across its shards (vpserve's -max-flows and -idle-timeout
// default to them), and vpclassify.
const (
	DefaultMaxFlows    = 65536
	DefaultIdleTimeout = 90 * time.Second
)

// maxHelloBytes caps the client handshake bytes a flow holds, in order or
// past a hole, while waiting for a complete ClientHello: four maximum-size
// TLS records, where a real hello is a fraction of one, yet tight enough
// that a million tracked flows cannot pin gigabytes. A flow over it (or
// over maxAhead) is abandoned and finalized as VerdictOversized. A parser
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
// HandlePacket and call Drain at the end of the input; every flow's
// finalized record comes out once, through Config.OnEvict, and Flows() is
// the live view of the flows still tracked. Not safe for concurrent use —
// Sharded runs one per shard, as the DPDK prototype shards by flow hash —
// with two exceptions: SwapBank may be called from any goroutine to
// hot-swap the classifier bank without pausing packet processing, and
// Stats and TableStats may be read from any goroutine.
type Pipeline struct {
	bank atomic.Pointer[Bank]

	cfg   Config
	flows *flowtable.Table[*flowState]
	// lastSweep is the packet time (UnixNano) of the last idle sweep,
	// math.MinInt64 until the first packet sets it.
	lastSweep int64

	// assembly is what every flow's hsAssembler.consume borrows for a frame
	// and keeps nothing of (the flow copies its handshake bytes into its own
	// store), and the handshake stores finalize gives back, so one per
	// pipeline is safe for the same reason scratch is.
	assembly asmScratch
	// scratch holds the classification path's reusable buffers (encoded
	// rows, forest probabilities, extension-walk scratch). One per pipeline
	// is safe: HandlePacket is single-goroutine by contract, and each shard
	// of a Sharded owns its own Pipeline.
	scratch ClassifyScratch
	// labels holds the prediction names of this pipeline's flows.
	labels labelTable

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
	p := &Pipeline{cfg: cfg, labels: newLabelTable(), lastSweep: math.MinInt64}
	p.bank.Store(bank)
	p.flows = flowtable.New[*flowState](
		flowtable.Config{MaxFlows: cfg.MaxFlows, IdleTimeout: cfg.IdleTimeout},
		func(canon packet.FlowKey, st *flowState, reason flowtable.Reason) {
			p.unregisterCIDs(st)
			if st.verdict == VerdictPending {
				// Evicted before the handshake resolved: the classifier never
				// saw this flow. With only 0-RTT early data seen the hello was
				// never coming, so the flow leaves as an explicit resumption
				// abstain rather than a generic no-handshake.
				p.finishSpan(st, "evicted")
				v := VerdictNoHandshake
				if st.cold.asm.zeroRTT {
					v = VerdictAbstainedZeroRTT
				}
				p.finalize(st, v)
			}
			if cfg.OnEvict != nil {
				rec := st.record(canon, &p.labels)
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
// call. The flow lets go of its cold record and gives its handshake
// store back to the pipeline's asmScratch (release): a HandshakeInfo
// pointing into it stays intact until the current call returns — the
// OnClassify hook runs after finalize — and a later flow's assembly
// overwrites it after that.
func (p *Pipeline) finalize(st *flowState, v Verdict) {
	st.verdict = v
	p.verdicts[v].Add(1) // before the provider split: see Stats
	// A ProviderHint may name a provider outside the studied four.
	if prov := int(st.provider); v == VerdictClassified && prov < len(p.classifiedBy) {
		p.classifiedBy[prov].Add(1)
	}
	if sp := st.cold.span; sp != nil {
		label := v.String()
		if v.ClassifierRan() {
			label = st.prediction(&p.labels).label()
			sp.Status = st.status.String()
		}
		p.finishSpan(st, label)
	}
	p.assembly.release(&st.cold.asm)
	st.cold = nil
}

// finishSpan completes a sampled flow's span with its terminal label and
// what the record holds of it — frames so far, first packet time, classify
// time — and hands it back to the tracer. No-op for unsampled flows; call
// only while the flow is undecided.
func (p *Pipeline) finishSpan(st *flowState, label string) {
	sp := st.cold.span
	if sp == nil {
		return
	}
	st.cold.span = nil
	sp.Frames = st.packetsUp + st.packetsDown
	sp.FirstPacket = time.Unix(0, st.firstSeen).UTC()
	sp.ClassifyNS = st.classifyNanos
	if sp.SNI == "" {
		sp.SNI = st.sni
	}
	if sp.ModelVersion == "" {
		sp.ModelVersion = st.modelVersion
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
// when the frame completed a flow's classification, and the classifier's
// error when it failed; both are also in the record Config.OnEvict receives
// when the flow leaves (a failure as VerdictError), which is where a
// consumer reads them. The frame gets the same per-packet decode a
// Sharded's ingest gives it (packet.Summary) and goes on to handleKeyed as a
// shard worker's frames do, whole. The pipeline copies anything it retains
// past the call, so the caller may recycle frame as soon as it returns.
//
// ts may be any instant: one outside what int64 Unix nanoseconds hold (before
// 1677 or after 2262, which a crafted capture can name) is kept as the
// nearest one they do (flowtable.UnixNano), for the flow's record and its
// idle clock alike.
func (p *Pipeline) HandlePacket(ts time.Time, frame []byte) (*FlowRecord, error) {
	var sum packet.Summary
	if !sum.Decode(frame) {
		p.packets.Add(1)
		return nil, nil // frames with no TCP/UDP 5-tuple are not errors for the tap
	}
	payload := frame[sum.PayloadOff : sum.PayloadOff+sum.PayloadLen]
	var rec FlowRecord
	if done, err := p.handleKeyed(&rec, ts, frame, payload, sum.Key, sum.Reversed, sum.PayloadLen); !done {
		return nil, err
	}
	out := rec // the one allocation, made only for a classified flow
	return &out, nil
}

// ClientSide orients a port-443 flow key client to server: the client is the
// endpoint talking to :443, whichever side the tap happened to see first —
// a server flight that overtakes the SYN on a two-tap merge, or a daemon
// started mid-flow, must not swap upstream and downstream. With both ports
// 443 the packet's own direction stands. FlowRecord.Key and every assignment
// of flowState.clientReversed go through here, so a segment from the :443
// side is never the client direction and never reaches handshake assembly —
// the fact Sharded's ingest relies on when it ships such segments without
// their payload.
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
// flow state until a ClientHello parses out. A frame is client-direction
// when reversed equals the flow's clientReversed. A handshake that completes
// is classified here, on arrival, and the flow finalized before the call
// returns: done says the frame completed a classification, whose record is
// then written to *rec. The record is the caller's memory, not a heap copy,
// so a caller with nowhere to put it (a full Results channel) allocates
// nothing; a result returned by value would cost the zeroing of a whole
// FlowRecord on every packet.
func (p *Pipeline) handleKeyed(rec *FlowRecord, ts time.Time, frame, payload []byte, key packet.FlowKey, reversed bool, payloadLen int) (done bool, err error) {
	p.packets.Add(1)
	if !isVideoPort(key) {
		return false, nil
	}
	at := flowtable.UnixNano(ts)
	p.maybeSweep(ts, at)
	canon := key
	if reversed {
		canon = key.Reverse()
	}
	st, ok := p.flows.Touch(canon, ts)
	if !ok {
		st, ok = p.migrateFlow(key, canon, payload, ts)
	}
	if !ok {
		st = &flowState{clientReversed: ClientSide(key) != canon, firstSeen: at, lastSeen: at, cold: &flowCold{}}
		st.cold.asm.init()
		if p.cfg.Tracer != nil {
			if sp := p.cfg.Tracer.Admit(); sp != nil {
				sp.Flow = canon.String()
				sp.Shard = p.cfg.shardID
				if p.cfg.queueDepth != nil {
					sp.QueueDepth = p.cfg.queueDepth()
				}
				st.cold.span = sp
			}
		}
		p.flows.Put(canon, st, ts)
	}
	if st.cold != nil && st.cold.span != nil {
		st.cold.span.QueueWaitNS += p.batchQueueWait
	}

	// Register QUIC connection IDs from long-header frames — both
	// directions, since the server's flight is what announces the server's
	// chosen CID — so a later 5-tuple change is recognized as migration
	// instead of spawning a ghost flow. Runs even for flows already
	// classified: migration happens mid-stream, long after the verdict.
	if key.Proto == packet.ProtoUDP && quicproto.IsLongHeader(payload) {
		p.learnCIDs(st, canon, payload)
	}

	// Telemetry split by direction. The flow spans the earliest to the
	// latest packet time, whatever order frames arrive in (two taps merged
	// without sorting), as the flow table's idle clock does.
	if at < st.firstSeen {
		st.firstSeen = at
	}
	if at > st.lastSeen {
		st.lastSeen = at
	}
	client := reversed == st.clientReversed
	if client {
		st.bytesUp += int64(payloadLen)
		st.packetsUp++
	} else {
		st.bytesDown += int64(payloadLen)
		st.packetsDown++
	}

	// Handshake splitter: only client-direction bytes can advance handshake
	// assembly (the ClientHello rides the client side), so server packets on
	// a still-unclassified flow cost nothing beyond the telemetry above.
	// Every client frame of an undecided flow reaches consume, so
	// packetsUp is also the count of frames the assembler has seen.
	if st.verdict != VerdictPending || !client {
		return false, nil
	}
	cold := st.cold
	var asmStart int64
	timed := p.cfg.Observer != nil || cold.span != nil
	if timed {
		asmStart = obs.Nanotime()
	}
	complete := cold.asm.consume(&p.assembly, frame)
	if timed {
		d := time.Duration(obs.Nanotime() - asmStart)
		p.cfg.Observer.Record(obs.StageAssembly, d)
		if cold.span != nil {
			cold.span.AssemblyNS += int64(d)
		}
	}
	if !complete {
		switch {
		case cold.asm.giveUp, cold.asm.zeroRTT && st.packetsUp > 8:
			// 0-RTT resumption: the hello is not coming. Decide on partial
			// features or abstain explicitly into the open-set bucket.
			return p.finishDegraded(rec, st, canon, &cold.asm.info, VerdictAbstainedZeroRTT), nil
		case st.packetsUp > 8:
			// No hello in the first packets: not a video flow.
			p.finalize(st, VerdictNoHandshake)
		case cold.asm.overflow || len(cold.asm.stream()) > p.cfg.helloCap:
			// Oversized handshake: abandon, don't buffer more.
			p.finalize(st, VerdictOversized)
		}
		return false, nil
	}
	info := &cold.asm.info

	sni := info.Hello.ServerName()
	prov, content, ok := MatchProvider(sni)
	if !ok {
		if info.Hello.HasExtension(tlsproto.ExtEncryptedClientHello) {
			// ECH: the visible SNI is a fronting public name; the real
			// hostname rides encrypted in the hello. The outer hello is
			// still a full client fingerprint, so degraded classification
			// under a hinted provider sees everything but the SNI.
			st.sni = sni // the fronted (outer) name — observable truth
			return p.finishDegraded(rec, st, canon, info, VerdictAbstainedECH), nil
		}
		if cold.span != nil {
			cold.span.SNI = sni // the record stays SNI-less for non-video flows
		}
		p.finalize(st, VerdictNotVideo)
		return false, nil
	}
	st.sni = sni
	st.provider = prov
	st.content = content
	st.transport = transportOf(info)

	bank := p.bank.Load() // one load: the whole classification uses one bank
	var clStart int64
	if timed {
		clStart = obs.Nanotime()
	}
	pred, err := bank.ClassifyHandshake(prov, st.transport, info, &p.scratch)
	if timed {
		d := time.Duration(obs.Nanotime() - clStart)
		p.cfg.Observer.Record(obs.StageClassify, d)
		st.classifyNanos = int64(d)
	}
	if err != nil {
		if cold.span != nil {
			cold.span.ModelVersion = bank.Version
		}
		p.finalize(st, VerdictError)
		return false, err
	}
	st.setPrediction(&pred, &p.labels)
	st.modelVersion = bank.Version
	p.finalize(st, pred.Verdict()) // gives info's storage back; nothing reuses it before the hook returns
	*rec = st.record(canon, &p.labels)
	if p.cfg.OnClassify != nil {
		hookRec := *rec
		p.cfg.OnClassify(&hookRec, info)
	}
	return true, nil
}

// transportOf names the transport an assembled (or partial) handshake rode.
func transportOf(info *features.HandshakeInfo) fingerprint.Transport {
	if info.QUIC {
		return fingerprint.QUIC
	}
	return fingerprint.TCP
}

// hintFor resolves the provider hint for a flow's server side, the
// destination of key, a client-to-server tuple.
func (p *Pipeline) hintFor(key packet.FlowKey) (fingerprint.Provider, bool) {
	if p.cfg.ProviderHint == nil {
		return 0, false
	}
	return p.cfg.ProviderHint(key.Dst)
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
// both baselines. canon is the flow's canonical key; the hint is looked up
// for its server side. It reports whether the flow was classified, and then
// writes its record to *rec, as handleKeyed does.
func (p *Pipeline) finishDegraded(rec *FlowRecord, st *flowState, canon packet.FlowKey, info *features.HandshakeInfo, fallback Verdict) bool {
	st.transport = transportOf(info)
	prov, hinted := p.hintFor(st.clientKey(canon))
	if !hinted {
		p.finalize(st, fallback)
		return false
	}
	bank := p.bank.Load() // one load: the prediction and its version stamp
	pred, err := bank.ClassifyHandshake(prov, st.transport, info, &p.scratch)
	if err != nil || pred.Status == Unknown || pred.PlatformMargin < p.earlyMinMargin() {
		p.finalize(st, fallback)
		return false
	}
	st.provider = prov
	st.setPrediction(&pred, &p.labels)
	st.modelVersion = bank.Version
	p.finalize(st, VerdictClassified)
	p.earlyClassified.Add(1) // after the verdict: see Stats
	*rec = st.record(canon, &p.labels)
	return true
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
	// The record keeps the tuple the flow was first seen on: save it before
	// the first re-orientation, since the table now holds only the new one.
	if st.orig == nil {
		orig := st.clientKey(oldCanon)
		st.orig = &orig
	}
	// The client now speaks from the migrated tuple (the 443 side stays the
	// server); re-orienting the flow keeps the direction split and any
	// still-running handshake assembly correct for everything that follows.
	st.clientReversed = ClientSide(key) != canon
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
	if st.cids == nil {
		st.cids = make([]cidKey, 0, 2) // a QUIC flow's DCID and SCID
	}
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
// driven by packet timestamps: ts, whose UnixNano is at. Evictions therefore
// lag idleness by at most a quarter timeout of trace time.
func (p *Pipeline) maybeSweep(ts time.Time, at int64) {
	if p.cfg.IdleTimeout <= 0 {
		return
	}
	if p.lastSweep == math.MinInt64 {
		p.lastSweep = at
		return
	}
	// at >= lastSweep makes the difference exact as a uint64, however far
	// apart the two times are.
	if at >= p.lastSweep && uint64(at-p.lastSweep) >= uint64(p.cfg.IdleTimeout/4) {
		p.flows.ExpireIdle(ts)
		p.lastSweep = at
	}
}

// watermark is the packet time (UnixNano) no record still to come out of
// OnEvict can have a LastSeen at or before, for input in packet-time order:
// the last idle sweep minus IdleTimeout (sweepWatermark). The sweep at S
// evicted every flow whose idle clock was at or before S - IdleTimeout,
// from the LRU tail, which in order is the oldest, so a flow still held was
// last seen after it, and a flow yet to be created will be seen at S or
// later. It is math.MaxInt64, no bound at all, before the first frame.
func (p *Pipeline) watermark() int64 {
	if p.packets.Load() == 0 {
		return math.MaxInt64
	}
	return sweepWatermark(p.lastSweep, p.cfg.IdleTimeout)
}

// sweepWatermark is the watermark of a pipeline whose last idle sweep was
// at sweep (UnixNano), saturating at math.MinInt64. With no idle timeout a
// held flow may be as old as the input, and it is math.MinInt64.
func sweepWatermark(sweep int64, idle time.Duration) int64 {
	if idle <= 0 || sweep < math.MinInt64+int64(idle) {
		return math.MinInt64
	}
	return sweep - int64(idle)
}

// Drain finalizes every tracked flow: it evicts them oldest first
// (flowtable.ReasonDrain) through the eviction hook, as an idle flow
// leaves, which resolves a flow still undecided — no-handshake, or
// abstained-0rtt after 0-RTT early data — and hands each record to
// Config.OnEvict. Call it at the end of the input; afterwards Flows() is
// empty and Stats().Verdicts sums to TableStats().Inserted.
func (p *Pipeline) Drain() { p.flows.Drain() }

// Flows returns copies of the records of the flows still tracked: the live
// view, not the output. A record taken here is not finalized — a flow still
// waiting for its handshake reads VerdictPending, where the eviction hook
// would have resolved it — and a flow already evicted is not included.
// Config.OnEvict, with Drain at the end, is where finalized records come
// out.
func (p *Pipeline) Flows() []*FlowRecord { return p.flowsUpTo(p.flows.Len()) }

// flowsUpTo is Flows copying at most limit records.
func (p *Pipeline) flowsUpTo(limit int) []*FlowRecord {
	out := make([]*FlowRecord, 0, min(limit, p.flows.Len()))
	p.flows.Range(func(canon packet.FlowKey, st *flowState) bool {
		if len(out) == limit {
			return false
		}
		rec := st.record(canon, &p.labels)
		out = append(out, &rec)
		return true
	})
	return out
}
