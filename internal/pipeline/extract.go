// Package pipeline implements the paper's Fig 4 packet-processing pipeline:
// packets are parsed, filtered to the four providers' video flows by SNI,
// split into handshake and payload packets, formalized into the Table 2
// attributes, and classified by a per-provider bank of random-forest models
// with the 80% confidence selector of §4.1. Classified flows are joined with
// volumetric telemetry for the §5 analyses.
//
// # Summarize-once batch ingest
//
// Two entry points feed the pipeline: Pipeline.HandlePacket, the
// single-core path, and Sharded, the deployment shape of the paper's
// multi-queue DPDK prototype. Both give a frame the same per-packet decode,
// packet.Summary — one pass over the fixed header offsets yielding the
// 5-tuple, whether the canonical key is its reverse, the hash input and
// where the payload lies, with no layer struct filled — and hand it to
// Pipeline.handleKeyed. A Sharded's ingest goroutine (Sharded.decode)
// writes the summary into the owning shard's pending batch, beside the
// bytes of the frame the shard can still read, packed into a pooled
// per-batch arena; one channel send per shard per batch. The paper wants
// nothing of the stream past the handshake but byte and packet counts, so
// what is kept of a frame (keepLen) is all of it but for the bulk of a
// video stream, server TCP segments and QUIC short headers, of which the
// flow stage reads only headers. Only the client-direction frames of a flow
// with no verdict yet (hsAssembler.consume), a handful per flow and none of
// them cut, get the full decode (packet.Parser.Parse: TTL, TCP flags,
// window and options), which is also the summary's oracle
// (TestSummaryMatchesParse, FuzzSummaryMatchesParse).
//
// Buffer-reuse rules: the caller's frame buffers are free as soon as
// HandlePacketBatch returns, and a batch's arena as soon as the shard
// worker has run its frames, because the pipeline copies anything it
// retains past the call (handshake bytes into the flow's assembler; flow
// keys and telemetry are values). Code that adds retention to the flow
// path must keep that copy-on-retain invariant, or the arena recycle is a
// use-after-free; code that reads further into a frame must widen keepLen,
// or it reads a cut frame on a Sharded and a whole one on a Pipeline. The
// guard is dynamic: TestBatchedMatchesSinglePacket,
// TestStreamingSplitHelloWithServerInterleave and FuzzShardedMatchesPipeline
// lend every frame from a buffer they overwrite the moment the entry point
// returns, make a Sharded pack each frame into the arena the one before it
// used, carry a ClientHello that spans segments and compare the two entry
// points, so a pointer kept into a frame changes the flow's verdict. The
// payload is never found by counting back from a frame's end:
// packet.Summary.PayloadOff (and packet.Parsed.PayloadOff) says where it
// starts, whatever padding follows the datagram. The shard inbox depth is
// a constant (shardQueueDepth); the best-effort results buffer is
// Config.ResultsBuffer, with a shard-count-scaled default.
//
// # Classify on arrival, finalize once
//
// A flow is labeled the moment its handshake completes (Fig 4, §4.1), on
// the frame that completes it, in Pipeline.handleKeyed — for a Sharded, on
// the owning shard's worker. Three pieces make that one path:
//
//   - Incremental handshake assembly. Each undecided flow owns an
//     hsAssembler, which consumes client-direction frames as they arrive
//     and puts their handshake bytes — TCP payload, or the CRYPTO frames of
//     every Initial — in stream order in one buffer, whatever order,
//     duplication or cut the path gave them; the hello is parsed once the
//     run from offset 0 holds it. The assembler sits in the flow's cold
//     record (flowCold), which the flow lets go of at its verdict: a decided
//     flow keeps only its hot record (flowState). Its handshake bytes,
//     ClientHello and transport parameters are one hsStore, which the flow
//     takes at its first handshake byte. Parser state, the Opener, the
//     decrypted Initial and the stores decided flows gave back are one
//     asmScratch per pipeline, kept by no flow, so a new flow assembles and
//     parses into a store an earlier one used.
//     Server-direction packets never touch assembly, and what a flow
//     holds is bounded (maxHelloBytes, maxAhead; oversized flows are
//     abandoned with VerdictOversized).
//
//   - One compiled evaluator. Bank.ClassifyHandshake encodes a flow's
//     handshake into one row through its bank entry's one
//     features.CompiledEncoder — raw wire values resolved through interned
//     tables, no FieldValues maps, no string formatting — and runs the §4.1
//     cascade over that row: the platform ml.CompiledForest first, the
//     device and agent forests only when it is unsure (Bank.ClassifyBatch
//     is a loop over it). The stage performs zero steady-state
//     allocations over the pipeline-owned ClassifyScratch, and its output
//     is byte-identical to the reference Extract+Transform+Classify path
//     (pinned by the golden-equivalence tests). That reference path is the
//     training entry point and the test oracle, nothing more: a bank whose
//     encoders or forests cannot compile is refused by TrainBank and
//     UnmarshalBinary, so none reaches a pipeline.
//
//   - One exit. Every terminal decision — classified, abstained, not video,
//     no handshake, oversized, classifier error, the ECH and 0-RTT abstains,
//     and eviction of a flow still undecided — goes through
//     Pipeline.finalize, the only code that stamps a flow's verdict, bumps
//     the per-verdict (and, for a classified flow, per-provider) counter
//     behind Pipeline.Stats, closes the flow's span, drops its cold record
//     and gives its handshake store back for reuse. A flow therefore carries
//     exactly one verdict and is counted exactly once; anything that
//     reports how many flows were classified reads those counters
//     (Sharded.IngestStats sums them).
//     There is one way out, too: Config.OnEvict is the stream of finalized
//     records, one per flow, delivered as each flow leaves its table —
//     idle, over the cap, or emptied by Drain (Pipeline.Drain, or
//     Sharded.Drain on every shard) at the end of the input. Once a table
//     is drained, the records OnEvict received are every flow it inserted.
//     Flows and Sharded.SnapshotFlows are the live view of flows still
//     tracked, not finalized.
//
// Scratch-reuse rules: each Pipeline owns one asmScratch and one
// ClassifyScratch (and each Sharded shard owns its Pipeline), so scratch
// state is single-goroutine by construction. A decided flow gives its
// hsStore — handshake bytes, ClientHello and transport parameters — back
// whole to the asmScratch (Pipeline.finalize, asmScratch.release), and a
// later flow takes it at its first handshake byte and fills it. The
// HandshakeInfo passed to Config.OnClassify is lent for the hook call: the
// hook runs after finalize, in the same call, and nothing is reused before
// the next frame is consumed, so what info points into is intact until the
// hook returns and is overwritten by a later flow after (see
// Config.OnClassify); the shadow evaluator classifies synchronously within
// the call. Serialized banks carry only encoders and forests —
// UnmarshalBinary rebuilds the compiled tables and the serving index before
// it returns — so the gob format is unchanged and older banks load into the
// compiled evaluator.
package pipeline

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"videoplat/internal/features"
	"videoplat/internal/fingerprint"
	"videoplat/internal/packet"
	"videoplat/internal/quicproto"
	"videoplat/internal/tlsproto"
	"videoplat/internal/tracegen"
)

// ErrNoHandshake is returned when a flow's frames contain no ClientHello.
var ErrNoHandshake = errors.New("pipeline: no ClientHello in flow")

// MatchProvider maps an SNI to a video provider, reproducing the paper's
// SNI-based traffic detection (content and management hostnames).
// The boolean reports whether the SNI matched at all; content reports
// whether it is a content (video-carrying) server rather than a management
// front-end. Case is ignored as DNS ignores it, ASCII letters only: an SNI
// is an ASCII hostname (RFC 6066 §3), and Unicode case mapping would let
// a non-ASCII name match (strings.ToLower maps U+0130 to "i").
func MatchProvider(sni string) (prov fingerprint.Provider, content, ok bool) {
	switch {
	case hasSuffixFold(sni, ".googlevideo.com"):
		return fingerprint.YouTube, true, true
	case hasSuffixFold(sni, "youtube.com"):
		return fingerprint.YouTube, false, true
	case hasSuffixFold(sni, ".nflxvideo.net"):
		return fingerprint.Netflix, true, true
	case hasSuffixFold(sni, "netflix.com"):
		return fingerprint.Netflix, false, true
	case hasSuffixFold(sni, ".dssott.com"): // .media.dssott.com among them
		return fingerprint.Disney, true, true
	case hasSuffixFold(sni, "disneyplus.com"):
		return fingerprint.Disney, false, true
	case hasSuffixFold(sni, ".aiv-cdn.net"), hasSuffixFold(sni, ".cloudfront.net"):
		return fingerprint.Amazon, true, true
	case hasSuffixFold(sni, "primevideo.com"), hasSuffixFold(sni, "amazonvideo.com"):
		return fingerprint.Amazon, false, true
	}
	return 0, false, false
}

// hasSuffixFold reports whether s ends in suffix, a lower-case ASCII
// string, reading s in place with ASCII letters' case ignored. The tail
// compared has suffix's byte length, so a non-ASCII rune, longer than the
// one ASCII letter it might fold to, never matches.
func hasSuffixFold(s, suffix string) bool {
	return len(s) >= len(suffix) && strings.EqualFold(s[len(s)-len(suffix):], suffix)
}

// hsAssembler is the incremental per-flow handshake assembler: a small
// state machine that consumes client-direction frames one at a time,
// remembering parse progress (SYN fields, handshake bytes held), so a flow
// is reassembled once in O(client handshake bytes). ExtractFrames is built
// on it. It counts no frames: the pipeline's frame-count heuristics read
// FlowRecord.PacketsUp, the client frames an undecided flow has consumed.
//
// It is the one place handshake bytes are put in order. Each piece of the
// stream goes through place at its stream offset, whatever the order and
// however often it arrives: a TCP segment's payload at its sequence number
// minus the base, and a CRYPTO frame of any Initial at the offset it names.
// The client's SYN fixes the base at its ISN + 1, so a SYN's own payload
// (TCP Fast Open) sits at offset 0, and so does a segment that begins with a
// handshake record header. Until one of them comes, the base is the lowest
// sequence number seen: a segment before it moves it down, and every byte
// held keeps its sequence number (rebase), so a hello whose SYN and first
// segment arrive after a later segment still assembles. Only a run from
// offset 0 that begins with a TLS record header of another kind — a flow
// joined mid-stream — drops what is held.
// Bytes already held win over any overlap. The hello is parsed each time a
// piece lengthens the run from offset 0, which has no hole. Every byte held
// counts against maxHelloBytes, and at most maxAhead ranges wait past the
// hole; going over either ends the flow VerdictOversized.
//
// The bytes, the Hello and the transport parameters are one hsStore the
// flow takes at its first handshake byte. The assembled Hello aliases only
// the store's stream: never the input frame, which callers recycle
// (Sharded's batch arenas) as soon as consume returns, nor the decrypted
// Initial in the asmScratch. The store may be one an earlier decided flow
// gave back, and Pipeline.finalize gives it back in turn
// (asmScratch.release): what info points into stays intact until the call
// that decided the flow returns, and a later flow's assembly overwrites it
// after that.
type hsAssembler struct {
	info     features.HandshakeInfo
	hs       *hsStore     // from the flow's first handshake byte
	ahead    *aheadRanges // from a piece past a hole until the hole closes
	base     uint32       // the TCP sequence number of offset 0, once haveBase
	haveBase bool
	fixed    bool // the base is the SYN's or a handshake record's start
	sawSYN   bool
	// zeroRTT marks that the client sent 0-RTT early data: the handshake
	// rides resumed keys and no fresh ClientHello may ever appear.
	zeroRTT bool
	// giveUp marks that the assembler has proof no hello is coming — the
	// client moved to short-header (1-RTT) packets after 0-RTT early data
	// without ever showing a ClientHello.
	giveUp   bool
	overflow bool // a piece needed more than maxAhead ranges
	// firstInitial marks that info's TTL and InitPacketSize are the first
	// Initial's: the one carrying CRYPTO offset 0.
	firstInitial bool
}

// maxAhead bounds the ranges a flow holds past the hole in its handshake
// stream: the 32 CRYPTO frames quicproto lets one Initial carry, so an
// Initial scattered past the hole always fits.
const maxAhead = 32

// aheadRanges lists the stream offsets a flow holds while it has a hole, in
// order and none touching the next: r[0] is the run from offset 0, maybe
// empty. Their bytes lie in stream in the same order, so a range starts at
// the sum of the lengths before it.
type aheadRanges struct {
	n int
	r [1 + maxAhead]extent
}

type extent struct{ off, end uint32 } // stream offsets [off, end)

// hsStore is a flow's handshake storage, one object from its first
// handshake byte to its verdict. stream holds each received handshake byte
// once: the run from offset 0, then, while the assembler's ahead is set,
// the ranges past the hole in offset order. hello and params are parsed
// from it and alias it; HandshakeInfo points at them once they parse.
type hsStore struct {
	stream []byte
	hello  tlsproto.ClientHello
	params quicproto.TransportParameters
}

// asmScratch is what assembling a frame uses and keeps nothing of: the full
// decode's parser state, the Opener, and the buffers a QUIC Initial is
// decrypted and listed into. One per Pipeline serves all its flows, since
// consume copies what a flow keeps into its own store before it returns.
//
// In spare[:n] it also keeps the handshake stores decided flows gave back
// (release), for later flows to take (take) instead of allocating. A store is taken only by a later consume on the pipeline's
// goroutine, so what a decided flow's HandshakeInfo points into stays
// intact until the call that decided it returns.
type asmScratch struct {
	parser packet.Parser
	parsed packet.Parsed
	opener quicproto.Opener
	plain  []byte                  // the latest Initial's decrypted payload
	crypto []quicproto.CryptoFrame // its CRYPTO frames, which alias plain

	n     int
	spare [maxSpares]*hsStore
}

// The bounds of the storage an asmScratch keeps: at most maxSpares stores,
// each with a stream buffer of at most maxSpareStream bytes, a real hello's
// several times over (the synthetic ones are under 1 KB), and hello and
// parameter lists of at most maxSpareList entries (the parser already
// bounds a hello's extensions to 64). A kept hello aliases its store's
// stream or, when it was split over records, the no larger buffer they
// were joined into. So a pipeline retains at most about maxSpares ×
// (2 × 4 KiB + 4.3 KiB) = 98 KiB.
const (
	maxSpares      = 8
	maxSpareStream = 4 << 10
	maxSpareList   = 64
)

// take hands a flow a handshake store: one a decided flow gave back, or a
// new one when there is none.
func (s *asmScratch) take() *hsStore {
	if s.n == 0 {
		return new(hsStore)
	}
	s.n--
	hs := s.spare[s.n]
	s.spare[s.n] = nil
	return hs
}

// release keeps a decided flow's handshake store, whole, for the flows
// after it. A store over the bounds, or one that finds the spares full, is
// left to the collector. Pipeline.finalize is the one caller; the flow's
// HandshakeInfo stays readable until the next consume.
func (s *asmScratch) release(a *hsAssembler) {
	hs := a.hs
	if hs == nil || s.n == len(s.spare) || cap(hs.stream) > maxSpareStream ||
		cap(hs.hello.CipherSuites) > maxSpareList || cap(hs.params.Params) > maxSpareList {
		return
	}
	hs.stream = hs.stream[:0]
	s.spare[s.n], s.n = hs, s.n+1
}

func (a *hsAssembler) init() { a.info.TCPWScale = -1 }

// stream is the handshake bytes the flow holds, none before its store.
func (a *hsAssembler) stream() []byte {
	if a.hs == nil {
		return nil
	}
	return a.hs.stream
}

// inOrder is the length of the run from offset 0.
func (a *hsAssembler) inOrder() int {
	if a.ahead == nil {
		return len(a.stream())
	}
	return int(a.ahead.r[0].end)
}

// place writes data at stream offset off: the bytes no held range covers
// are inserted into the store's stream where their offset orders them. It
// reports false, placing no more, when that needs more than maxAhead
// ranges. The flow must have its store.
func (a *hsAssembler) place(off uint32, data []byte) bool {
	hs := a.hs
	if a.ahead == nil {
		if n := uint32(len(hs.stream)); off <= n { // the in-order case
			hs.stream = append(hs.stream, data[min(n-off, uint32(len(data))):]...)
			return true
		}
		a.ahead = &aheadRanges{n: 1, r: [1 + maxAhead]extent{{0, uint32(len(hs.stream))}}}
	}
	r := a.ahead
	for len(data) > 0 {
		i, pos := 0, 0 // the first range not wholly before off, where it starts in stream
		for ; i < r.n && r.r[i].end <= off; i++ {
			pos += int(r.r[i].end - r.r[i].off)
		}
		n := uint32(len(data))
		if i < r.n {
			if r.r[i].off <= off { // held
				n = min(n, r.r[i].end-off)
				data, off = data[n:], off+n
				continue
			}
			n = min(n, r.r[i].off-off)
		}
		switch {
		case i > 0 && r.r[i-1].end == off:
			if r.r[i-1].end += n; i < r.n && r.r[i].off == r.r[i-1].end { // the hole closed
				r.r[i-1].end = r.r[i].end
				copy(r.r[i:], r.r[i+1:r.n])
				r.n--
			}
		case i < r.n && r.r[i].off == off+n:
			r.r[i].off = off
		case r.n == len(r.r):
			a.overflow = true
			return false
		default:
			copy(r.r[i+1:r.n+1], r.r[i:r.n])
			r.r[i], r.n = extent{off, off + n}, r.n+1
		}
		hs.stream = slices.Insert(hs.stream, pos, data[:n]...)
		data, off = data[n:], off+n
	}
	if r.n == 1 {
		a.ahead = nil // no hole is left
	}
	return true
}

// rebase makes base the sequence number of offset 0. Held bytes keep their
// sequence numbers: a base d lower moves them d further from offset 0
// (shift); a higher one, or one more than maxHelloBytes lower, leaves them
// before offset 0 or past any hello that fits, so they are dropped.
func (a *hsAssembler) rebase(base uint32) {
	if d := a.base - base; a.haveBase && d != 0 && len(a.stream()) > 0 {
		if int32(d) < 0 || d > maxHelloBytes {
			a.hs.stream, a.ahead = a.hs.stream[:0], nil
		} else {
			a.shift(d)
		}
	}
	a.base, a.haveBase = base, true
}

// shift moves every held byte d further from offset 0, behind a hole at
// the start. It moves nothing and marks the flow overflowed when that needs
// more than maxAhead ranges, as place does.
func (a *hsAssembler) shift(d uint32) {
	if a.ahead == nil {
		a.ahead = &aheadRanges{n: 1, r: [1 + maxAhead]extent{{0, uint32(len(a.hs.stream))}}}
	}
	r := a.ahead
	if r.r[0].end > 0 { // the run from offset 0 becomes a range past the hole
		if r.n == len(r.r) {
			a.overflow = true
			return
		}
		copy(r.r[1:r.n+1], r.r[:r.n])
		r.r[0], r.n = extent{}, r.n+1
	}
	for i := 1; i < r.n; i++ {
		r.r[i].off += d
		r.r[i].end += d
	}
}

// recordHeader reports whether b begins with a TLS record header — a
// content type from change_cipher_spec (20) to heartbeat (24) and a 3.x
// version — and whether it is a handshake record's (22).
func recordHeader(b []byte) (ok, handshake bool) {
	if len(b) < 3 || b[0] < 20 || b[0] > 24 || b[1] != 3 || b[2] > 4 {
		return false, false
	}
	return true, b[0] == 22
}

// consume feeds one client-direction frame to the state machine, decoding it
// in full with the scratch parser state — the TTL, flags and options the
// per-packet packet.Summary skips are read here — and opening QUIC Initials
// with the scratch Opener. It returns true once the flow's ClientHello has
// been fully assembled, after which a.info is complete (including
// pre-parsed QUIC transport parameters) and no further frames should be
// offered.
func (a *hsAssembler) consume(s *asmScratch, frame []byte) bool {
	parsed := &s.parsed
	if err := s.parser.Parse(frame, parsed); err != nil {
		return false // non-IP noise is skipped, as a tap would
	}
	info := &a.info
	held := a.inOrder()
	switch {
	case parsed.Has(packet.LayerTCP):
		t := &parsed.TCP
		seq := t.Seq // of the payload: a SYN's own sequence number precedes it
		if t.Flags&packet.FlagSYN != 0 {
			seq++
			if t.Flags&packet.FlagACK == 0 && !a.sawSYN {
				a.sawSYN = true
				info.QUIC = false
				info.TTL = parsed.TTL()
				info.InitPacketSize = parsed.IPLen()
				info.TCPFlags = t.Flags
				info.TCPWindow = t.Window
				info.TCPMSS = t.MSS()
				info.TCPWScale = t.WindowScale()
				info.TCPSACK = t.SACKPermitted()
				a.rebase(seq)
				a.fixed = true
			}
		}
		data := parsed.Payload
		if len(data) == 0 || info.Hello != nil {
			return false
		}
		if !a.fixed && (!a.haveBase || int32(seq-a.base) < 0) {
			// Before every byte held, with offset 0 not fixed yet.
			a.rebase(seq)
			_, a.fixed = recordHeader(data)
		}
		off := int32(seq - a.base)
		if off < 0 { // starts before offset 0: only its tail can be new
			data, off = data[min(len(data), int(-int64(off))):], 0
		}
		if a.hs == nil {
			a.hs = s.take()
		}
		hs := a.hs
		if !a.place(uint32(off), data) || a.inOrder() == held {
			return false
		}
		err := hs.hello.ParseRecordInto(hs.stream[:a.inOrder()])
		if err == nil {
			info.Hello = &hs.hello
			return true
		}
		if rec, handshake := recordHeader(hs.stream); !errors.Is(err, tlsproto.ErrMalformed) && rec && !handshake {
			// A record of another kind at offset 0: the flow was joined
			// mid-stream. Drop what is held; the next payload segment sets
			// the base afresh.
			hs.stream, a.ahead, a.haveBase, a.fixed = hs.stream[:0], nil, false, false
		}
	case parsed.Has(packet.LayerUDP):
		if !quicproto.IsLongHeader(parsed.Payload) {
			// A short header before any hello: the client is in 1-RTT. If
			// early data preceded it, the handshake rode resumed keys and
			// no ClientHello is coming — proof, not a heuristic.
			if a.zeroRTT && info.Hello == nil {
				a.giveUp = true
			}
			return false
		}
		var crypto []quicproto.CryptoFrame
		if quicproto.LongHeaderType(parsed.Payload) == quicproto.Type0RTT {
			// 0-RTT early data: opaque under resumed keys, and evidence the
			// flow is a session resumption. It carries no CRYPTO stream.
			a.zeroRTT = true
		} else {
			init := quicproto.Initial{Crypto: s.crypto[:0]} // a local: its IDs alias the frame
			var err error
			if s.plain, err = s.opener.Open(&init, parsed.Payload, s.plain); err != nil {
				return false
			}
			crypto, s.crypto = init.Crypto, init.Crypto
		}
		// The transport attributes are the client's first Initial's, the
		// one that carries CRYPTO offset 0, whichever packet arrives first.
		// Until it comes, the flow's first QUIC packet, early data or a
		// later Initial, stands in: that is what the degraded path
		// classifies on when no hello ever comes.
		if first := startsCrypto(crypto); !a.firstInitial && (first || !info.QUIC) {
			info.QUIC = true
			info.TTL = parsed.TTL()
			info.InitPacketSize = len(parsed.Payload)
			a.firstInitial = first
		}
		if a.hs == nil && len(crypto) > 0 {
			a.hs = s.take()
		}
		for _, f := range crypto {
			if !a.place(uint32(f.Offset), f.Data) {
				return false
			}
		}
		if a.inOrder() == held { // so a byte was placed, and the flow has its store
			return false
		}
		hs := a.hs
		if hs.hello.ParseInto(hs.stream[:a.inOrder()]) != nil {
			return false
		}
		// The transport parameters are parsed once, here, so the serving
		// path's compiled encoders never re-parse extension 57.
		if e, ok := hs.hello.Extension(tlsproto.ExtQUICTransportParams); ok && hs.params.ParseInto(e.Data) == nil {
			info.Params = &hs.params
		}
		info.Hello = &hs.hello
		return true
	}
	return false
}

// startsCrypto reports whether an Initial's CRYPTO frames include the one at
// offset 0, which only the client's first Initial (or a retransmission of
// it) carries.
func startsCrypto(crypto []quicproto.CryptoFrame) bool {
	for _, f := range crypto {
		if f.Offset == 0 {
			return true
		}
	}
	return false
}

// ExtractFrames assembles a flow's HandshakeInfo from its client-side
// frames: the TCP SYN + ClientHello record, or the QUIC Initial. This is the
// handshake-attribute path of Fig 4's preprocessing stage, expressed as a
// batch fold over the incremental assembler the streaming pipeline uses.
func ExtractFrames(frames [][]byte) (*features.HandshakeInfo, error) {
	var x struct { // one allocation for both
		a hsAssembler
		s asmScratch
	}
	x.a.init()
	for _, frame := range frames {
		if x.a.consume(&x.s, frame) {
			return &x.a.info, nil
		}
	}
	return nil, ErrNoHandshake
}

// ExtractTrace assembles HandshakeInfo from a generated FlowTrace's
// client-side frames.
func ExtractTrace(ft *tracegen.FlowTrace) (*features.HandshakeInfo, error) {
	var frames [][]byte
	for _, fr := range ft.Frames {
		if fr.ClientToServer {
			frames = append(frames, fr.Data)
		}
	}
	info, err := ExtractFrames(frames)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", ft.Label, ft.Provider, err)
	}
	return info, nil
}

// DeviceOf maps a composite platform label to its device-type class
// (windows/macOS/android/iOS/TV), the paper's device-type objective.
func DeviceOf(label string) string {
	i := strings.IndexByte(label, '_')
	if i < 0 {
		return label
	}
	dev := label[:i]
	switch dev {
	case "androidTV", "ps5":
		return "TV"
	}
	return dev
}

// AgentOf maps a composite platform label to its software-agent class.
func AgentOf(label string) string {
	i := strings.IndexByte(label, '_')
	if i < 0 {
		return label
	}
	return label[i+1:]
}
