package pipeline

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"

	"videoplat/internal/fingerprint"
	"videoplat/internal/flowtable"
	"videoplat/internal/obs"
	"videoplat/internal/packet"
	"videoplat/internal/quicproto"
)

const (
	// shardQueueDepth is the per-shard inbox capacity in batch messages. A
	// full inbox applies backpressure to the ingest goroutine, counted in
	// IngestStats.Stalls. A queued batch holds a ~100-byte summary per frame
	// plus the frame's kept bytes (keepLen): whole for handshake and other
	// client-direction frames, ~60–75 bytes for the server TCP segments and
	// QUIC short headers that are the bulk of a stream. A 64-frame batch is
	// therefore ~10KB of established-flow traffic and ~100KB if every frame
	// is an MTU-sized handshake frame hashing to one shard, so 64 messages
	// bound a shard at well under 1MB in the common case and a few MB at
	// worst; no batch packs more than maxBatchArena, whatever the size of
	// the caller's batches. Not a setting: 64 messages of 64-frame batches
	// is the pair every bench/ workload validates, and a deployment that
	// stalls needs more shards, not a deeper queue in front of the same
	// workers.
	shardQueueDepth = 64
	// DefaultResultsBufferPerShard scales the Results channel with the shard
	// count when Config.ResultsBuffer is zero. Even a draining consumer
	// loses records past it (see the Results delivery contract on Sharded).
	DefaultResultsBufferPerShard = 64
)

// IngestPacket is one timestamped frame handed to the batch ingest path.
// What the pipeline still needs of Data is copied into a pooled arena on
// ingest, so the caller may reuse the bytes as soon as HandlePacketBatch
// returns.
type IngestPacket struct {
	// TS is the frame's packet time. It may be any instant: one outside what
	// int64 Unix nanoseconds hold (before 1677 or after 2262, which a crafted
	// capture can name) is kept as the nearest one they do
	// (flowtable.UnixNano), as Pipeline.HandlePacket keeps it.
	TS   time.Time
	Data []byte
}

// Sharded fans packets out to per-shard Pipelines by flow hash, the
// multi-queue arrangement the paper's DPDK prototype uses to keep up with a
// 20 Gbps tap. Hashing is symmetric (both directions of a flow land on the
// same shard), and each shard owns its flow table, so shards never contend.
//
// Ingest contract (the package doc's "Summarize-once batch ingest" has the
// whole rule): the ingest goroutine writes each frame's packet.Summary into
// the owning shard's pending batch, prefetching the header of the frame
// prefetchAhead slots later, and packs the bytes the flow stage can still
// read (keepLen) into a per-batch arena from a sync.Pool, recycled once the
// shard's pipeline has consumed the batch — the pipeline copies anything it
// retains, so a recycled arena never aliases live flow state. Only
// client-direction frames of undecided flows are decoded in full
// (hsAssembler.consume), and a frame that completes a handshake is
// classified by its shard worker on the spot. Frames with no TCP/UDP
// 5-tuple and flows off port 443 are dropped at ingest, counted in
// IngestStats.Ignored and IngestStats.Filtered.
//
// HandlePacketBatch is intended for a single ingest goroutine (the shard
// workers provide the parallelism) and must not be called concurrently
// with itself. When a shard's inbox fills, ingest blocks until the worker
// catches up — backpressure, not loss — and the stall is counted in
// IngestStats.Stalls.
//
// Results delivery contract: classified-flow records are delivered on
// Results() on a best-effort basis. A consumer that stops draining does not
// block the shard workers — once the buffer fills, further records are
// counted in IngestStats.DroppedResults and discarded, never built on the
// heap, so Close never deadlocks on a stalled consumer and a deployment that
// reads no results pays nothing for them. The buffer defaults to
// DefaultResultsBufferPerShard per shard (Config.ResultsBuffer overrides).
// Draining does not make the stream complete: with workers classifying back
// to back, one goroutine ranging over Results at the default buffer missed
// 5–40 % of 4,288 records behind one shard and 52–73 % behind two (2 vCPUs,
// GOMAXPROCS 2). Config.OnEvict is the only complete stream of final state:
// flows evicted from a bounded table as they go, the rest when Drain empties
// the tables (or, left in place by Close, from Flows()).
type Sharded struct {
	shards   []*shard
	results  chan *FlowRecord
	dropped  atomic.Uint64
	ignored  atomic.Uint64
	filtered atomic.Uint64
	stalls   atomic.Uint64

	batchPool sync.Pool // *ingestBatch
	wg        sync.WaitGroup

	// onWatermark is what OnWatermark registered, run by a shard worker
	// whose batch moved its watermark.
	onWatermark func(time.Time)
	// unstarted counts the shards that ingest has handed no frame yet (see
	// startPending).
	unstarted int

	// pending holds each shard's batch under construction during a
	// HandlePacketBatch call; a persistent field (legal under the
	// single-ingest-goroutine contract) so the hot path never allocates it.
	pending []*ingestBatch

	// sum is the ingest goroutine's scratch decode — HandlePacketBatch is
	// single-goroutine by contract, so one serves every frame.
	sum packet.Summary

	// obsv/tracer mirror Config.Observer/Config.Tracer. When both are nil
	// ingest reads no clock and shard messages carry no enqueue stamps.
	obsv   *obs.PipelineObserver
	tracer *obs.Tracer

	// cidRoute maps observed QUIC connection IDs to the shard that owns
	// their flow. Shard placement hashes the 5-tuple, so a migrated flow's
	// packets would otherwise hash to the wrong shard and the owning
	// shard's CID index would never see them; this ingest-side cache (owned
	// by the single ingest goroutine, like the decode scratch) routes by
	// CID first. It is a routing cache, not authoritative state: entries go
	// stale when flows evict, a stale hit merely routes the packet to a
	// shard that treats it as a new flow — exactly what no cache would do.
	// It ages instead of filling up: two generations of maxCIDRoutes/2
	// entries (generations), so a daemon that never restarts keeps routing
	// the flows of the last tens of thousands of connections, and a CID
	// still in use is refreshed by every hit.
	cidRoute cidIndex[int]
	// tupleRoute pins a canonical 5-tuple to the shard its flow lives on,
	// learned whenever CID routing overrides the tuple hash. It exists for
	// frames CID routing cannot see: a client with a zero-length connection
	// ID (Chrome) receives post-migration short headers carrying no CID at
	// all, and only the migrated tuple links them to the owning shard. Same
	// ownership, staleness and ageing as cidRoute, under the same bound.
	tupleRoute generations[packet.FlowKey, int]
}

// maxCIDRoutes bounds each ingest routing cache: 64K entries (~1.5 MB for
// the CIDs) in two generations of half that, which covers tens of thousands
// of concurrent QUIC flows.
const maxCIDRoutes = 1 << 16

type shard struct {
	in chan shardMsg
	p  *Pipeline
	// wm is the pipeline's watermark as of its last batch, published by the
	// worker for Watermark to read.
	wm atomic.Int64
}

// shardMsg carries a batch of summarized frames or, when do is non-nil, a
// side request: the worker runs do on its pipeline behind the frames queued
// before it, so the request never races packet processing, and do signals
// its caller (see onEachShard). Drain and SnapshotFlows are such requests.
type shardMsg struct {
	batch *ingestBatch
	do    func(*Pipeline)
	// enq stamps (obs.Nanotime) when the message entered the inbox, set only
	// when latency observation is on, else 0; the worker turns it into a
	// queue-wait sample.
	enq int64
}

// ingestBatch is the unit shipped to a shard: the summaries of one or more
// frames decoded at ingest, and the bytes of those frames the shard can
// still read, packed back-to-back into a single arena. Packing keeps the
// copy path sequential (a streamed append instead of scattered per-frame
// buffers) and makes recycling one pool op per batch. Frames reference
// their bytes by arena offset, so arena growth during packing never
// invalidates them.
type ingestBatch struct {
	arena  []byte
	frames []ingestFrame
}

// maxBatchArena caps the bytes one batch packs: Sharded.decode ships a
// shard's pending batch early rather than grow its arena past this, which
// keeps ingestFrame's offsets in int32 however many frames a caller hands
// HandlePacketBatch at once, and bounds what one inbox slot can pin.
const maxBatchArena = 1 << 20

// ingestFrame is what crosses the queue of a frame's packet.Summary, beside
// its timestamp and kept bytes — everything the flow stage needs.
// Sharded.decode fills a slot of the batch in place, and the worker reads it
// there: the struct is never passed by value.
type ingestFrame struct {
	ts  time.Time
	key packet.FlowKey // as on the wire
	// reversed says the flow's canonical key is key.Reverse(), not key, so
	// the worker derives it without the address comparison ingest already
	// made and without a second 56-byte key in every summary.
	reversed bool
	off, end int32 // the kept bytes, keepLen of the frame, are arena[off:end]
	// payloadOff is where the transport payload starts within the kept
	// bytes; payloadLen is its length on the wire, which is what the byte
	// counters use. The kept part of it is shorter when keepLen cut the frame
	// and ends before the kept bytes do when an Ethernet trailer follows.
	payloadOff, payloadLen int32
}

// shortHeaderKeep is how much of a QUIC short-header payload anything past
// ingest reads: the flags byte and the longest connection ID, which are what
// cidIndex.lookup probes and all hsAssembler looks at.
const shortHeaderKeep = 1 + 20

// keepLen is how many leading bytes of a frame the flow stage can still
// read, given the frame's decode: its key, where its transport payload
// starts and the payload itself. That is the whole frame, Ethernet trailer
// included, with two exceptions. A TCP segment from port 443 to any other
// port is never the client direction (ClientSide), so it never reaches
// handshake assembly and nothing reads past its TCP header. A UDP payload
// that is a short header — or no QUIC at all — is read for a connection ID
// and no further, so shortHeaderKeep bytes of it serve. These two are the
// bulk of a video stream: what a decided flow still needs of them is their
// length, which the summary carries.
func keepLen(key packet.FlowKey, frameLen, payloadOff int, payload []byte) int {
	switch key.Proto {
	case packet.ProtoTCP:
		if key.SrcPort == 443 && key.DstPort != 443 {
			return payloadOff
		}
	case packet.ProtoUDP:
		if len(payload) > shortHeaderKeep && !quicproto.IsLongHeader(payload) {
			return payloadOff + shortHeaderKeep
		}
	}
	return frameLen
}

// NewShardedWithConfig starts n shard workers whose pipelines are each
// bounded by cfg. cfg.MaxFlows applies per shard; cfg.OnEvict is invoked
// from shard goroutines and must be safe for concurrent use.
// cfg.ResultsBuffer sizes the Results channel (zero selects the
// shard-count-scaled default). Call Close to drain and stop.
func NewShardedWithConfig(bank *Bank, n int, cfg Config) *Sharded {
	if n < 1 {
		n = 1
	}
	if cfg.inboxDepth == 0 {
		cfg.inboxDepth = shardQueueDepth
	}
	rbuf := cfg.ResultsBuffer
	if rbuf <= 0 {
		rbuf = DefaultResultsBufferPerShard * n
	}
	s := &Sharded{
		results:   make(chan *FlowRecord, rbuf),
		pending:   make([]*ingestBatch, n),
		obsv:      cfg.Observer,
		tracer:    cfg.Tracer,
		unstarted: n,
	}
	s.cidRoute.m.bound = maxCIDRoutes / 2
	s.tupleRoute.bound = maxCIDRoutes / 2
	for i := 0; i < n; i++ {
		in := make(chan shardMsg, cfg.inboxDepth)
		// Each shard's pipeline gets a private Config copy carrying its
		// identity and a live inbox-depth probe for sampled spans.
		shCfg := cfg
		shCfg.shardID = i
		shCfg.queueDepth = func() int { return len(in) }
		sh := &shard{in: in, p: NewWithConfig(bank, shCfg)}
		sh.wm.Store(math.MaxInt64) // no frame yet
		s.shards = append(s.shards, sh)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for msg := range sh.in {
				if msg.do != nil {
					msg.do(sh.p)
					continue
				}
				if msg.enq != 0 {
					wait := time.Duration(obs.Nanotime() - msg.enq)
					s.obsv.Record(obs.StageQueueWait, wait)
					sh.p.noteQueueWait(wait)
				}
				b := msg.batch
				var rec FlowRecord // a classified flow's, copied out by deliver
				for i := range b.frames {
					f := &b.frames[i]
					kept := b.arena[f.off:f.end]
					payload := kept[f.payloadOff:]
					if len(payload) > int(f.payloadLen) {
						payload = payload[:f.payloadLen] // an Ethernet trailer follows it
					}
					if done, _ := sh.p.handleKeyed(&rec, f.ts, kept, payload, f.key, f.reversed, int(f.payloadLen)); done {
						s.deliver(&rec)
					}
				}
				// The pipeline copies anything it retains, so the arena is
				// dead here and the whole batch recycles in one pool op.
				s.batchPool.Put(b)
				if wm := sh.p.watermark(); wm != sh.wm.Load() {
					sh.wm.Store(wm)
					if s.onWatermark != nil {
						s.onWatermark(s.Watermark())
					}
				}
			}
		}()
	}
	return s
}

// getBatch returns an empty batch, recycling arena and frame capacity from
// the pool when available.
func (s *Sharded) getBatch() *ingestBatch {
	if b, ok := s.batchPool.Get().(*ingestBatch); ok {
		b.arena = b.arena[:0]
		b.frames = b.frames[:0]
		return b
	}
	return new(ingestBatch)
}

// decode summarizes one frame (packet.Summary: the 5-tuple, its canonical
// order and hash words and the payload bounds, read at fixed header offsets
// with no layer decoded), picks the shard that owns its flow and writes the
// summary and the frame's kept bytes (keepLen) straight into that shard's
// pending batch. A frame that carries no TCP/UDP 5-tuple (counted in
// Ignored) or is not port-443 traffic (counted in Filtered) goes nowhere:
// neither can become a video flow, so neither is worth an arena copy and a
// shard hop. data is only borrowed: what is kept of it is copied into the
// arena — the one place frame bytes are copied — and the caller may recycle
// the buffer as soon as decode returns (TestBatchedMatchesSinglePacket and
// FuzzShardedMatchesPipeline overwrite it the moment it does).
func (s *Sharded) decode(ts time.Time, data []byte) {
	sum := &s.sum
	if !sum.Decode(data) {
		s.ignored.Add(1)
		return
	}
	if !isVideoPort(sum.Key) {
		s.filtered.Add(1)
		return
	}
	payload := data[sum.PayloadOff : sum.PayloadOff+sum.PayloadLen]
	idx := int(hashWords(&sum.Words) % uint64(len(s.shards)))
	if sum.Key.Proto == packet.ProtoUDP && len(payload) > 0 {
		canon := sum.Key
		if sum.Reversed {
			canon = canon.Reverse()
		}
		if own, hit := s.tupleRoute.get(canon); hit {
			idx = own
		} else if routed := s.routeQUIC(payload, idx); routed != idx {
			// CID routing overrode the hash: a migrated tuple. Pin it so
			// CID-less frames on this tuple follow the flow too.
			idx = routed
			s.tupleRoute.put(canon, idx)
		}
	}

	keep := keepLen(sum.Key, len(data), sum.PayloadOff, payload)
	b := s.pending[idx]
	if b != nil && len(b.arena)+keep > maxBatchArena {
		s.startPending()
		s.flush(idx, s.stamp())
		b = nil
	}
	if b == nil {
		b = s.getBatch()
		s.pending[idx] = b
	}
	b.frames = append(b.frames, ingestFrame{})
	f := &b.frames[len(b.frames)-1]
	f.ts = ts
	f.key = sum.Key
	f.reversed = sum.Reversed
	f.off = int32(len(b.arena))
	b.arena = append(b.arena, data[:keep]...)
	f.end = int32(len(b.arena))
	f.payloadOff = int32(sum.PayloadOff)
	f.payloadLen = int32(sum.PayloadLen)
}

// startPending publishes, for each shard about to get its first frames, the
// watermark its pipeline will have once it has processed the first of them.
// Until then a shard bounds nothing (Watermark), and it must bound before
// any batch of the call goes out: a shard that ran ahead on a batch handed
// over first could otherwise move the watermark past frames still waiting in
// another shard's first batch. Only ingest moves a shard off "no frame yet"
// (its worker publishes only after a frame), so a plain load and store
// serve; once every shard has had frames it is one compare per call.
func (s *Sharded) startPending() {
	if s.unstarted == 0 {
		return
	}
	for idx, b := range s.pending {
		if sh := s.shards[idx]; b != nil && sh.wm.Load() == math.MaxInt64 {
			sh.wm.Store(sweepWatermark(flowtable.UnixNano(b.frames[0].ts), sh.p.cfg.IdleTimeout))
			s.unstarted--
		}
	}
}

// flush hands a shard its pending batch, stamped enq; the shard owns it
// from here.
func (s *Sharded) flush(idx int, enq int64) {
	b := s.pending[idx]
	s.pending[idx] = nil
	s.send(s.shards[idx], shardMsg{batch: b, enq: enq})
}

// stamp is a message's enqueue stamp: a clock read when latency observation
// is on, else 0 (unstamped).
func (s *Sharded) stamp() int64 {
	if s.obsv == nil && s.tracer == nil {
		return 0
	}
	return obs.Nanotime()
}

// routeQUIC overrides the hash-based shard of a QUIC frame when its
// connection ID is already owned by a shard: after a connection migration
// the new 5-tuple hashes elsewhere, and only CID routing lands the packet
// on the shard holding the flow's state. Long-header frames also teach the
// cache their IDs (both directions — the server flight announces the
// server's CID).
func (s *Sharded) routeQUIC(payload []byte, hashIdx int) int {
	if !quicproto.IsLongHeader(payload) {
		if idx, hit := s.cidRoute.lookup(payload); hit {
			return idx
		}
		return hashIdx
	}
	ids, err := quicproto.ParseLongHeaderCIDs(payload)
	if err != nil {
		return hashIdx
	}
	// Resolve the owning shard from either ID first, then teach both under
	// it, so a frame pairing a known ID with a fresh one (the server flight
	// echoing the client's SCID while announcing its own CID) registers the
	// fresh ID to the flow's shard, not the tuple hash.
	idx, hit := s.cidRoute.get(ids.DCID)
	if !hit {
		idx, hit = s.cidRoute.get(ids.SCID)
	}
	if !hit {
		idx = hashIdx
	}
	for _, cid := range [2][]byte{ids.DCID, ids.SCID} {
		if _, known := s.cidRoute.get(cid); known {
			continue
		}
		if ck, ok := mkCIDKey(cid); ok {
			s.cidRoute.put(ck, idx)
		}
	}
	return idx
}

// send enqueues a shard message, counting the stall when the inbox is full
// before blocking until the worker catches up (backpressure, not loss).
// It reads no clock: the caller stamps msg.enq.
func (s *Sharded) send(sh *shard, msg shardMsg) {
	select {
	case sh.in <- msg:
	default:
		s.stalls.Add(1)
		sh.in <- msg
	}
}

// prefetchAhead is how many frames ahead of the one being summarized
// HandlePacketBatch prefetches a header. A frame's bytes were last written by
// whoever read it off the wire, so its header line is usually not in cache,
// and the summary's first load of it was the largest single cost on the
// ingest goroutine. Two frames give the line one frame's decode and arena
// copy to arrive in; four measured the same as two.
const prefetchAhead = 2

// HandlePacketBatch routes a batch of frames with one summary decode per
// frame and at most one channel send per shard, amortizing the per-packet
// channel cost that dominates the single-packet path at high rates. While a
// frame is summarized, the header of the frame prefetchAhead positions later
// is already on its way into cache. What is kept of each pkt.Data is copied
// into a pooled arena, so callers may reuse the batch and its buffers
// immediately. See the type comment for the ingest contract.
//
// Observed, the call times the batch, not the frame: one monotonic clock
// read before the frame loop and one after it. The second is also the
// enqueue stamp of every shard message the call sends at its end; only an
// early flush at maxBatchArena reads the clock again. StageDecode gets
// len(pkts) samples of the batch's per-frame mean in one RecordN, so its
// count and mean are exact and its quantiles are per-batch means.
func (s *Sharded) HandlePacketBatch(pkts []IngestPacket) {
	var t0 int64
	if s.obsv != nil {
		t0 = obs.Nanotime()
	}
	for i := range pkts {
		if j := i + prefetchAhead; j < len(pkts) && len(pkts[j].Data) > 0 {
			prefetch(&pkts[j].Data[0])
		}
		s.decode(pkts[i].TS, pkts[i].Data)
	}
	now := s.stamp()
	if s.obsv != nil && len(pkts) > 0 {
		s.obsv.RecordN(obs.StageDecode, time.Duration((now-t0)/int64(len(pkts))), len(pkts))
	}
	s.startPending()
	for idx, b := range s.pending {
		if b != nil {
			s.flush(idx, now)
		}
	}
}

// deliver offers a copy of rec to the results channel without ever blocking a
// shard worker; records nobody is draining are dropped and counted. The copy
// is made on the heap only once the channel has room, so a classified flow
// that nobody reads costs no allocation. The shard workers share the
// channel, so room seen here can be taken by another worker before the send;
// that record is then dropped and counted as if the channel had been full.
func (s *Sharded) deliver(rec *FlowRecord) {
	if len(s.results) == cap(s.results) {
		s.dropped.Add(1)
		return
	}
	out := new(FlowRecord)
	*out = *rec
	select {
	case s.results <- out:
	default:
		s.dropped.Add(1)
	}
}

// Watermark is the shards' packet clock as a consumer of Config.OnEvict
// reads it: no record still to come out of the hook has a LastSeen at or
// before it, for input handed over in packet-time order. It is the least of
// the shards' watermarks, each published after every batch: the shard's
// last idle sweep minus IdleTimeout, so it trails the packets by about
// IdleTimeout plus the quarter timeout between sweeps. A shard that has
// been handed no frame yet holds nothing and bounds nothing, whatever the
// others' clocks (its first frames will be later than theirs); the zero
// Time means no shard has been handed one. With no IdleTimeout nothing
// bounds a held flow's age, and Watermark stays in 1677 (math.MinInt64
// nanoseconds). Out-of-order input breaks the promise for the frames out of
// order. Safe from any goroutine.
func (s *Sharded) Watermark() time.Time {
	wm := int64(math.MaxInt64)
	for _, sh := range s.shards {
		wm = min(wm, sh.wm.Load())
	}
	if wm == math.MaxInt64 {
		return time.Time{}
	}
	return time.Unix(0, wm).UTC()
}

// OnWatermark registers f to run on a shard worker after each batch that
// moved that shard's watermark, with Watermark as it then reads: the hook a
// consumer of Config.OnEvict seals its windows from. Shard workers may run
// f concurrently, and a later call may carry an earlier watermark than one
// already run, so f must keep the greatest. Call it before the first frame
// is handed over.
func (s *Sharded) OnWatermark(f func(time.Time)) { s.onWatermark = f }

// Results delivers classified flow records as they complete. See the type
// comment for the best-effort delivery contract.
func (s *Sharded) Results() <-chan *FlowRecord { return s.results }

// Bank returns the classifier bank currently serving classifications.
func (s *Sharded) Bank() *Bank { return s.shards[0].p.Bank() }

// SwapBank hot-swaps the classifier bank on every shard without pausing
// packet processing: each shard's pipeline loads its bank pointer once per
// packet, so flows classifying during the swap complete coherently against
// whichever bank they loaded and later packets see the new one. Shards
// switch independently (not as one transaction), so during the swap some
// shards may still classify against the old bank — records carry
// ModelVersion so every classification stays attributable. Safe from any
// goroutine, including concurrently with HandlePacketBatch and
// SnapshotFlows.
func (s *Sharded) SwapBank(bank *Bank) {
	for _, sh := range s.shards {
		sh.p.SwapBank(bank)
	}
}

// IngestStats is the one point-in-time snapshot of a Sharded's counters: the
// ingest goroutine's own and, summed across shards, the per-pipeline ones
// an operator reads beside them. All fields are monotonic and safe to read
// from any goroutine via Sharded.IngestStats.
type IngestStats struct {
	// Ignored counts frames dropped at ingest: malformed, not TCP/UDP over
	// IP, or a non-first IP fragment, so they carry no flow to route.
	Ignored uint64 `json:"ignored_frames"`
	// Filtered counts decodable flows dropped at ingest by the port-443
	// video filter — on a general tap, the bulk of the traffic — before
	// they cost a copy or a shard hop.
	Filtered uint64 `json:"filtered_frames"`
	// DroppedResults counts classified records discarded because the
	// Results consumer was not draining (best-effort delivery).
	DroppedResults uint64 `json:"dropped_results"`
	// Stalls counts ingest submissions that found a shard inbox full and
	// had to wait — sustained growth means the shard workers can't keep up
	// with the offered rate (add shards, or accept the backpressure).
	Stalls uint64 `json:"stalls"`
	// Migrations counts flows re-keyed onto a new 5-tuple by QUIC
	// connection migration: the flow tables' Rekeyed (summed across shards).
	Migrations uint64 `json:"migrations"`
	// EarlyClassified counts degraded (partial-feature) classifications
	// accepted by the EarlyMinMargin gate (summed across shards).
	EarlyClassified uint64 `json:"early_classified"`
	// Verdicts counts finalized flows by verdict, and ClassifiedByProvider
	// splits Verdicts[VerdictClassified] by fingerprint.Provider (both
	// Stats, summed across shards). They are the shard workers' own
	// counters, so they are exact however many records Results() dropped.
	Verdicts             [NumVerdicts]uint64              `json:"verdicts"`
	ClassifiedByProvider [fingerprint.NumProviders]uint64 `json:"classified_by_provider"`
}

// IngestStats snapshots the ingest counters. Safe from any goroutine.
func (s *Sharded) IngestStats() IngestStats {
	st := IngestStats{
		Ignored:        s.ignored.Load(),
		Filtered:       s.filtered.Load(),
		DroppedResults: s.dropped.Load(),
		Stalls:         s.stalls.Load(),
	}
	for _, sh := range s.shards {
		ps := sh.p.Stats()
		st.Migrations += sh.p.TableStats().Rekeyed
		st.EarlyClassified += ps.EarlyClassified
		for v, n := range ps.Verdicts {
			st.Verdicts[v] += n
		}
		for i, n := range ps.ClassifiedByProvider {
			st.ClassifiedByProvider[i] += n
		}
	}
	return st
}

// QueueDepths reports each shard's current inbox occupancy in messages —
// the live back-pressure picture (IngestStats.Stalls only counts after the
// fact). Safe from any goroutine; values are instantaneous and independently
// sampled.
func (s *Sharded) QueueDepths() []int {
	out := make([]int, len(s.shards))
	for i, sh := range s.shards {
		out[i] = len(sh.in)
	}
	return out
}

// QueueCapacity reports the per-shard inbox capacity in messages.
func (s *Sharded) QueueCapacity() int { return cap(s.shards[0].in) }

// onEachShard runs f on every shard's pipeline, on the shard's worker once
// it has processed the frames queued before the call, and returns when every
// shard has run it. f runs concurrently across shards; i is the shard's
// index. Must not be called after (or concurrently with) Close.
func (s *Sharded) onEachShard(f func(i int, p *Pipeline)) {
	var wg sync.WaitGroup
	wg.Add(len(s.shards))
	for i, sh := range s.shards {
		sh.in <- shardMsg{do: func(p *Pipeline) { f(i, p); wg.Done() }}
	}
	wg.Wait()
}

// Drain finalizes every flow still tracked: each shard, once it has
// processed the frames queued before the request, runs Pipeline.Drain, so
// every record reaches Config.OnEvict with its terminal verdict. It returns
// once every shard has drained. Call it after the last HandlePacketBatch
// and before Close; afterwards Flows() is empty and every inserted flow has
// been counted in IngestStats().Verdicts.
func (s *Sharded) Drain() { s.onEachShard(func(_ int, p *Pipeline) { p.Drain() }) }

// Close stops the workers after draining queued packets and closes Results.
// The flows still tracked stay as they are, readable through Flows(); call
// Drain first to finalize them.
func (s *Sharded) Close() {
	for _, sh := range s.shards {
		close(sh.in)
	}
	s.wg.Wait()
	close(s.results)
}

// Flows gathers the per-flow records of every shard. Call after Close.
func (s *Sharded) Flows() []*FlowRecord {
	var out []*FlowRecord
	for _, sh := range s.shards {
		out = append(out, sh.p.Flows()...)
	}
	return out
}

// SnapshotFlows gathers every shard's current flow records while the
// workers are running, by queueing a snapshot request behind each shard's
// pending packets. Must not be called after (or concurrently with) Close.
func (s *Sharded) SnapshotFlows() []*FlowRecord { return s.SnapshotFlowsUpTo(math.MaxInt) }

// SnapshotFlowsUpTo is SnapshotFlows copying at most limit records per
// shard, so a caller that shows a page of flows does not copy the whole
// table while each worker waits. Shard i's records precede shard i+1's, as
// in SnapshotFlows.
func (s *Sharded) SnapshotFlowsUpTo(limit int) []*FlowRecord {
	per := make([][]*FlowRecord, len(s.shards))
	s.onEachShard(func(i int, p *Pipeline) { per[i] = p.flowsUpTo(limit) })
	var out []*FlowRecord
	for _, recs := range per {
		out = append(out, recs...)
	}
	return out
}

// TableStats sums the flow-table counters across shards. Safe from any
// goroutine while the workers run.
func (s *Sharded) TableStats() flowtable.Stats {
	var st flowtable.Stats
	for _, sh := range s.shards {
		t := sh.p.TableStats()
		st.Active += t.Active
		st.Inserted += t.Inserted
		st.EvictedIdle += t.EvictedIdle
		st.EvictedCap += t.EvictedCap
		st.EvictedDrain += t.EvictedDrain
		st.Rekeyed += t.Rekeyed
	}
	return st
}

// hashWords hashes a canonical 5-tuple, given as packet.Summary.Words:
// multiply–rotate over the two 16-byte addresses and a word holding ports and
// protocol, then an avalanche finalizer. It is symmetric because the words
// are of the canonical key. The finalizer is not optional: a multiply carries
// a difference upward only, so without it the low bits of the result — the
// ones that pick the shard — are blind to the high bits of the last word, and
// tuples that differ only in the top bits of a port would all share a shard.
func hashWords(words *[5]uint64) uint64 {
	const m = 0x9e3779b97f4a7c15 // 2^64 / golden ratio, odd
	h := uint64(0)
	for _, w := range words {
		h = bits.RotateLeft64((h^w)*m, 29)
	}
	// The 64-bit finalizer of MurmurHash3.
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
