// Package pipeline implements the paper's Fig 4 packet-processing pipeline:
// packets are parsed, filtered to the four providers' video flows by SNI,
// split into handshake and payload packets, formalized into the Table 2
// attributes, and classified by a per-provider bank of random-forest models
// with the 80% confidence selector of §4.1. Classified flows are joined with
// volumetric telemetry for the §5 analyses.
//
// # Summarize-once batch ingest
//
// Two entry points feed the pipeline. Pipeline.HandlePacket is the
// single-core path. Sharded is the deployment shape of the paper's
// multi-queue DPDK prototype. Both give a frame the same per-packet decode,
// packet.Summary: one pass over the fixed header offsets that yields the
// 5-tuple, whether the canonical key is its reverse, the canonical key as
// hash input and where the payload starts and how long it is on the wire —
// no layer struct filled, no address compared or hashed a second time — and
// both hand the result to Pipeline.handleKeyed. A Sharded's ingest goroutine
// (Sharded.decode) writes the summary, with the frame's timestamp, into the
// owning shard's pending batch, beside the bytes of the frame the shard can
// still read, packed back-to-back into a pooled per-batch arena; one channel
// send per shard per batch (HandlePacketBatch; HandlePacket ships a batch of
// one). The paper classifies a flow from its handshake and wants nothing
// else of the stream but byte and packet counts, so what is kept of a frame
// (keepLen) is all of it, Ethernet trailer included, except for the two kinds
// that make up the bulk of a video stream: a TCP segment from port 443 to any
// other port is kept through its TCP header, and a QUIC short header through
// the flags byte and the longest connection ID. The first is exact because
// of one orientation rule, applied wherever a flow's client side is set
// (ClientSide): the client is the endpoint talking to :443, so a segment
// from the :443 side is never client-direction and never reaches handshake
// assembly. The second because connection-ID lookup and the assembler read
// nothing further into a short header. The flow stage routes and accounts
// every frame from its summary — and gives the full decode
// (packet.Parser.Parse: TTL, TCP flags, window and options) only to the
// frames that can still advance a handshake: the client-direction frames of
// a flow with no verdict yet (hsAssembler.consume), a handful per flow, none
// of them cut. packet.Parser.Parse is also the summary's oracle
// (TestSummaryMatchesParse, FuzzSummaryMatchesParse): the two agree on every
// frame about whether there is a 5-tuple, what it is and where the payload
// lies.
//
// Buffer-reuse rules: the caller's frame buffers are free as soon as
// HandlePacketBatch returns — what is kept was copied. A batch's arena is
// recycled as soon as the shard worker has run every frame through the
// pipeline, which is safe because the pipeline copies anything it retains
// past the call (client handshake payload bytes are copied into the flow's
// assembler; flow keys and telemetry are values). Code that adds retention
// to the flow path must keep that copy-on-retain invariant or the arena
// recycle in Sharded becomes a use-after-free. The guard is dynamic:
// TestBatchedMatchesSinglePacket, TestStreamingSplitHelloWithServerInterleave
// and FuzzShardedMatchesPipeline lend every frame from a buffer they
// overwrite the moment the entry point returns, make a Sharded pack each
// frame into the arena the one before it used, and carry a ClientHello that
// spans segments — so a pointer kept into a frame reads something else by
// the time the flow is classified, and the flow's verdict says so. Code that
// reads further into a frame on the flow path must widen keepLen, or it
// reads a cut frame on a Sharded and a whole one on a Pipeline (the same
// tests compare the two). The payload is never found by
// counting back from a frame's end: packet.Summary.PayloadOff (and
// packet.Parsed.PayloadOff) says where it starts, whatever padding follows
// the datagram. Frames with no TCP/UDP 5-tuple are dropped at ingest
// (counted in IngestStats.Ignored). The shard inbox depth is a constant
// (shardQueueDepth); the best-effort results buffer is Config.ResultsBuffer,
// with a shard-count-scaled default.
//
// # Classify on arrival, finalize once
//
// A flow is labeled the moment its handshake completes (Fig 4, §4.1), on
// the frame that completes it, in Pipeline.handleKeyed — for a Sharded, on
// the owning shard's worker. Three pieces make that one path:
//
//   - Incremental handshake assembly. Each undecided flow owns an
//     hsAssembler, a small state machine that consumes client-direction
//     bytes as they arrive and remembers parse progress (SYN fields, and one
//     buffer of handshake bytes: the TCP payload, or the QUIC CRYPTO runs
//     copied out of each Initial as it is opened), so a flow is reassembled
//     once in O(client handshake bytes) instead of re-running full
//     reassembly over every buffered frame on every packet. The assembler
//     sits in the flow's cold record (flowCold), which the flow lets go of
//     at its verdict: a decided flow, tracked for the rest of its session,
//     keeps only its hot record (flowState). What decoding and decrypting a
//     frame needs beyond that — parser state, the Opener, the decrypted
//     Initial — is one asmScratch per pipeline, kept by no flow.
//     Server-direction packets never touch assembly, and buffered bytes are
//     bounded by maxHelloBytes (oversized flows are abandoned with
//     VerdictOversized).
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
//     behind Pipeline.Stats, closes the flow's span and drops its cold
//     record, with the buffered handshake bytes. A flow therefore carries
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
// state is single-goroutine by construction. The HandshakeInfo passed to
// Config.OnClassify is lent for the hook call and points into the flow's
// own handshake buffer, not into scratch: nothing reuses those bytes, but a
// hook that kept it would pin a flow's worth of handshake (see
// Config.OnClassify); the shadow evaluator classifies synchronously within
// the call. Serialized banks carry only encoders and forests —
// UnmarshalBinary rebuilds the compiled tables and the serving index before
// it returns — so the gob format is unchanged and older banks load into the
// compiled evaluator.
package pipeline

import (
	"errors"
	"fmt"
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
// front-end.
func MatchProvider(sni string) (prov fingerprint.Provider, content, ok bool) {
	s := strings.ToLower(sni)
	switch {
	case strings.HasSuffix(s, ".googlevideo.com"):
		return fingerprint.YouTube, true, true
	case strings.HasSuffix(s, "youtube.com"):
		return fingerprint.YouTube, false, true
	case strings.HasSuffix(s, ".nflxvideo.net"):
		return fingerprint.Netflix, true, true
	case strings.HasSuffix(s, "netflix.com"):
		return fingerprint.Netflix, false, true
	case strings.HasSuffix(s, ".media.dssott.com"), strings.HasSuffix(s, ".dssott.com"):
		return fingerprint.Disney, true, true
	case strings.HasSuffix(s, "disneyplus.com"):
		return fingerprint.Disney, false, true
	case strings.HasSuffix(s, ".aiv-cdn.net"), strings.HasSuffix(s, ".cloudfront.net"):
		return fingerprint.Amazon, true, true
	case strings.HasSuffix(s, "primevideo.com"), strings.HasSuffix(s, "amazonvideo.com"):
		return fingerprint.Amazon, false, true
	}
	return 0, false, false
}

// hsAssembler is the incremental per-flow handshake assembler: a small
// state machine that consumes client-direction frames one at a time,
// remembering parse progress (SYN fields seen, handshake bytes buffered),
// so a flow's handshake is reassembled in O(total client bytes) instead of
// re-running full reassembly over every buffered frame on every packet.
// Consuming a flow's client frames in order leaves the assembler in exactly
// the state ExtractFrames' batch fold would have reached — ExtractFrames is
// implemented on top of it. It counts no frames: the pipeline's frame-count
// heuristics read FlowRecord.PacketsUp, which counts exactly the client
// frames an undecided flow's assembler has consumed.
//
// The assembler owns every byte it retains, in one buffer, and the
// assembled Hello aliases nothing else: a flow is TCP or QUIC, so stream
// holds either the client's TCP payload as it arrives or the QUIC CRYPTO
// runs that continue the stream, copied out of each Initial as it is
// opened, and the hello is parsed where it lies there. Never the input frame
// — callers may recycle frame buffers (e.g. Sharded's batch arenas) as soon
// as consume returns — and never the asmScratch, which the pipeline's other
// flows reuse. Pipeline.finalize drops the flow's cold record, and with it
// the assembler, but writes to neither: the buffer, and everything info.Hello
// points into, is never reused, and lives until nothing references it — at
// the verdict, or once an OnClassify hook reading the handshake lets go of
// it.
type hsAssembler struct {
	info features.HandshakeInfo
	// stream buffers the flow's client handshake bytes. For QUIC only a
	// contiguous prefix of the CRYPTO stream is kept; a run that does not
	// continue it ends the flow as no-handshake rather than buying an
	// unbounded reorder buffer.
	stream []byte
	sawSYN bool
	// zeroRTT marks that the client sent 0-RTT early data: the handshake
	// rides resumed keys and no fresh ClientHello may ever appear.
	zeroRTT bool
	// giveUp marks that the assembler has proof no hello is coming — the
	// client moved to short-header (1-RTT) packets after 0-RTT early data
	// without ever showing a ClientHello.
	giveUp bool
}

// asmScratch is what assembling a frame uses and keeps nothing of: the full
// decode's parser state, the Opener, and the buffer a QUIC Initial is
// decrypted into. One serves every flow of a pipeline, because consume
// copies whatever a flow keeps into that flow's own stream before it
// returns; and one per Pipeline (each Sharded shard owns its own) makes it
// single-goroutine by construction.
type asmScratch struct {
	parser packet.Parser
	parsed packet.Parsed
	opener quicproto.Opener
	plain  []byte // the latest Initial's decrypted payload
}

func (a *hsAssembler) init() { a.info.TCPWScale = -1 }

// buffered reports the client handshake bytes currently held for this flow
// (the quantity maxHelloBytes bounds).
func (a *hsAssembler) buffered() int { return len(a.stream) }

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
	switch {
	case parsed.Has(packet.LayerTCP):
		t := &parsed.TCP
		if t.Flags&packet.FlagSYN != 0 && t.Flags&packet.FlagACK == 0 && !a.sawSYN {
			a.sawSYN = true
			info.QUIC = false
			info.TTL = parsed.TTL()
			info.InitPacketSize = parsed.IPLen()
			info.TCPFlags = t.Flags
			info.TCPWindow = t.Window
			info.TCPMSS = t.MSS()
			info.TCPWScale = t.WindowScale()
			info.TCPSACK = t.SACKPermitted()
		}
		if len(parsed.Payload) > 0 && info.Hello == nil {
			a.stream = append(a.stream, parsed.Payload...)
			ch, err := tlsproto.ParseRecord(a.stream)
			if err == nil {
				info.Hello = ch
				return true
			}
			if !errors.Is(err, tlsproto.ErrMalformed) {
				// Not a handshake record at all: wrong flow start.
				a.stream = a.stream[:0]
			}
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
		var init quicproto.Initial
		if quicproto.LongHeaderType(parsed.Payload) == quicproto.Type0RTT {
			// 0-RTT early data: opaque under resumed keys, and evidence the
			// flow is a session resumption. It carries no CRYPTO stream.
			a.zeroRTT = true
		} else {
			var err error
			if s.plain, err = s.opener.Open(&init, parsed.Payload, s.plain); err != nil {
				return false
			}
		}
		// The flow's first QUIC packet, early data or Initial, carries the
		// transport attributes — what the degraded path classifies on when
		// no hello ever comes. info.QUIC marks them captured, so later
		// packets never overwrite them.
		if !info.QUIC {
			info.QUIC = true
			info.TTL = parsed.TTL()
			info.InitPacketSize = len(parsed.Payload)
		}
		// A hello split across Initials (a client that migrated
		// mid-handshake fragments its flight) arrives as several CRYPTO
		// runs. Each that continues the stream is copied onto it; a gap
		// means the flow ends as no-handshake via the frame-count heuristic.
		if len(init.CryptoData) == 0 || int(init.CryptoOffset) != len(a.stream) {
			return false
		}
		a.stream = append(a.stream, init.CryptoData...)
		ch, err := tlsproto.Parse(a.stream)
		if err != nil {
			return false
		}
		info.Hello = ch
		return true
	}
	return false
}

// finish completes an assembled handshake: for QUIC it pre-parses the
// transport parameters once, so the serving path's compiled encoders never
// re-parse extension 57. Call only after consume returned true.
func (a *hsAssembler) finish() *features.HandshakeInfo {
	info := &a.info
	if info.QUIC && info.Params == nil && info.Hello != nil {
		if e, ok := info.Hello.Extension(tlsproto.ExtQUICTransportParams); ok {
			info.Params, _ = quicproto.ParseTransportParameters(e.Data)
		}
	}
	return info
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
			return x.a.finish(), nil
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
