package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"sort"
	"time"

	"videoplat/internal/fingerprint"
	"videoplat/internal/packet"
	"videoplat/internal/pipeline"
	"videoplat/internal/tracegen"
)

// traceBase is pass 0's trace-clock origin. The daemon's pre-filled store
// history ends here, so live windows always append after it.
var traceBase = time.Date(2023, 7, 7, 0, 0, 0, 0, time.UTC)

// frame is one rendered packet: its offset on the pass's trace clock, its
// bytes, and the workload flow it belongs to.
type frame struct {
	off  time.Duration
	data []byte
	flow int32
}

// flowMeta is the render-time ground truth of one workload flow.
type flowMeta struct {
	key    packet.FlowKey // canonical key of the flow's first tuple
	label  string         // true user platform
	client [][]byte       // client-direction handshake-phase frames, for the staged assemble layer
}

// sizes are the knobs that scale a workload; -quick shrinks them.
type sizes struct {
	churnFlows   int // churn, adversarial and daemon
	streamFlows  int
	streamFrames int // server data frames per stream flow; one client ACK rides every second one
	storeWindows int // pre-filled one-minute windows in the daemon's store
	storeRecords int // records folded into each pre-filled window
	yardPasses   int // yardstick passes per sample: about 30 ms at the full size
}

var fullSizes = sizes{churnFlows: 1500, streamFlows: 1024, streamFrames: 8, storeWindows: 1100, storeRecords: 256, yardPasses: 25}
var quickSizes = sizes{churnFlows: 200, streamFlows: 64, streamFrames: 8, storeWindows: 40, storeRecords: 16, yardPasses: 1}

// workload is one seeded set of inputs. first is the complete pass 0;
// frames is what every later pass replays, shifted advance further along
// the trace clock each time. For the churning workloads the two are the
// same and advance exceeds the idle timeout, so each pass re-creates and
// re-evicts every flow. For stream, frames holds only the post-handshake
// packets and advance stays under the idle timeout, so later passes hit
// established flows only.
type workload struct {
	name    string
	flows   []flowMeta
	first   []frame
	frames  []frame
	advance time.Duration
	churns  bool // every pass finalizes every flow
	hint    bool // serve with Config.ProviderHint = tracegen.ProviderOfAddr
	skipped int  // rendered flows dropped because a key was already taken
	hash    string
}

// combo is one renderable (platform, provider) pair.
type combo struct {
	label     string
	prov      fingerprint.Provider
	tcp, quic bool
}

func combos() []combo {
	var out []combo
	for _, prov := range fingerprint.AllProviders() {
		for _, label := range fingerprint.AllPlatformLabels() {
			if !fingerprint.SupportMatrix(label, prov) {
				continue
			}
			out = append(out, combo{label, prov, fingerprint.SupportsTCP(label, prov), fingerprint.SupportsQUIC(label, prov)})
		}
	}
	return out
}

// renderer draws flows for one workload. Everything random comes from seed.
type renderer struct {
	g      *tracegen.Generator
	rng    *rand.Rand
	all    []combo
	quic   []combo // the QUIC-capable subset, for scenarios that need QUIC
	used   map[packet.FlowKey]bool
	w      *workload
	frames []frame
}

func newRenderer(name string, seed uint64) *renderer {
	salt := uint64(0)
	for _, c := range name {
		salt = salt*131 + uint64(c)
	}
	r := &renderer{
		g:    tracegen.New(seed ^ salt<<8),
		rng:  rand.New(rand.NewPCG(seed, salt)),
		all:  combos(),
		used: map[packet.FlowKey]bool{},
		w:    &workload{name: name},
	}
	for _, c := range r.all {
		if c.quic {
			r.quic = append(r.quic, c)
		}
	}
	return r
}

// claim reserves a rendered flow's keys. tracegen draws client tuples from
// about four million values, so a dozen flows in twenty thousand collide; two
// flows on one key would merge in the flow table and no reference could
// tell them apart, so the later one is dropped at render time.
func (r *renderer) claim(ft *tracegen.FlowTrace) bool {
	keys := []packet.FlowKey{ft.Key().Canonical()}
	if ft.Migrated {
		keys = append(keys, ft.MigratedKey().Canonical())
	}
	for _, k := range keys {
		if r.used[k] {
			r.w.skipped++
			return false
		}
	}
	for _, k := range keys {
		r.used[k] = true
	}
	return true
}

// draw picks a combo and a transport: TCP and QUIC are equally likely where
// the platform speaks both.
func (r *renderer) draw(needQUIC bool) (combo, fingerprint.Transport) {
	pool := r.all
	if needQUIC {
		pool = r.quic
	}
	c := pool[r.rng.IntN(len(pool))]
	switch {
	case needQUIC, !c.tcp:
		return c, fingerprint.QUIC
	case !c.quic:
		return c, fingerprint.TCP
	case r.rng.IntN(2) == 0:
		return c, fingerprint.QUIC
	}
	return c, fingerprint.TCP
}

// add appends one accepted flow starting at start on the pass clock.
// handshake is how many of ft.Frames precede the payload.
func (r *renderer) add(ft *tracegen.FlowTrace, start time.Duration, handshake int) int32 {
	id := int32(len(r.w.flows))
	m := flowMeta{key: ft.Key().Canonical(), label: ft.Label}
	for i, fr := range ft.Frames {
		if i < handshake && fr.ClientToServer {
			m.client = append(m.client, fr.Data)
		}
		r.frames = append(r.frames, frame{off: start + fr.Offset, data: fr.Data, flow: id})
	}
	r.w.flows = append(r.w.flows, m)
	return id
}

func (r *renderer) finish() *workload {
	w := r.w
	sort.SliceStable(r.frames, func(i, j int) bool { return r.frames[i].off < r.frames[j].off })
	w.first = r.frames
	if w.frames == nil {
		w.frames = r.frames
	}
	h := sha256.New()
	var buf [12]byte
	for _, list := range [][]frame{w.first, w.frames} {
		for _, f := range list {
			binary.LittleEndian.PutUint64(buf[:8], uint64(f.off))
			binary.LittleEndian.PutUint32(buf[8:], uint32(len(f.data)))
			h.Write(buf[:])
			h.Write(f.data)
		}
	}
	w.hash = hex.EncodeToString(h.Sum(nil))
	return w
}

// Short flows live about a second and start staggered over twenty seconds
// of trace time. Passes start two minutes apart: from a pass's last packet
// (at about 21 s) to the next pass's first is past the 90 s idle timeout,
// so that first packet expires the whole previous pass. Nothing longer: each
// pass opens a one-minute telemetry window of its own, and the daemon's
// store would grow a ten-minute bucket per pass if passes were that far
// apart, making its live heap a function of how many passes a run fits.
const (
	churnStagger  = 20 * time.Second
	churnDuration = time.Second
	churnAdvance  = 2 * time.Minute
	churnPayload  = 4
)

// renderChurn renders n distinct short flows: a full handshake plus four
// payload frames each. With adversarial set, half the flows are drawn
// uniformly from the ECH, 0-RTT and migration scenarios (a third of the
// migrations happen mid-handshake).
func renderChurn(name string, seed uint64, n int, adversarial bool) (*workload, error) {
	r := newRenderer(name, seed)
	r.w.advance, r.w.churns, r.w.hint = churnAdvance, true, adversarial
	var plain *tracegen.FlowTrace // the last flow rendered without a scenario
	var plainID int32
	var plainStart time.Duration
	for len(r.w.flows) < n {
		spec := tracegen.FlowSpec{Start: traceBase, Duration: churnDuration, PayloadFrames: churnPayload}
		ordinary, needQUIC := true, false
		if adversarial && r.rng.IntN(2) == 0 {
			ordinary = false
			switch r.rng.IntN(3) {
			case 0:
				spec.Options.ECH = true
			case 1:
				spec.Options.ZeroRTT = true
			default:
				spec.Options.Migration, needQUIC = true, true
				spec.MigrateMidHandshake = r.rng.IntN(3) == 0
			}
		}
		c, tr := r.draw(needQUIC)
		ft, err := r.g.Flow(c.label, c.prov, tr, spec)
		if err != nil {
			return nil, fmt.Errorf("rendering %s flow %s/%s/%s: %w", name, c.label, c.prov, tr, err)
		}
		if !r.claim(ft) {
			continue
		}
		start := churnStagger * time.Duration(len(r.w.flows)) / time.Duration(n)
		id := r.add(ft, start, len(ft.Frames)-churnPayload)
		if ordinary {
			plain, plainID, plainStart = ft, id, start
		}
	}
	// A pass is padded to a whole number of ingest batches with client ACKs
	// on one ordinary flow. The server reads fixed 64-frame batches straight
	// through pass boundaries; a batch holding the end of one pass and the
	// start of the next, two minutes later on the trace clock, would let
	// idle expiry evict flows whose batched classification is still
	// deferred. That finalizes them as pending: honest, but an artefact of
	// the replay's time jump, not of anything a tap delivers.
	if pad := (benchBatch - len(r.frames)%benchBatch) % benchBatch; pad > 0 {
		if plain == nil {
			return nil, fmt.Errorf("rendering %s: no ordinary flow to pad the pass with", name)
		}
		for i := 0; i < pad; i++ {
			off := plainStart + 100*time.Millisecond + time.Duration(i)*time.Millisecond
			r.frames = append(r.frames, frame{off: off, data: r.clientAck(plain), flow: plainID})
		}
	}
	return r.finish(), nil
}

// Stream flows all start within the first second and carry data for thirty
// seconds of trace time; passes follow each other 32 s apart, so a flow is
// never idle for anything near the 90 s timeout.
const (
	streamStagger  = time.Second
	streamDuration = 30 * time.Second
	streamAdvance  = 32 * time.Second
)

// renderStream renders n long-lived flows. Pass 0 carries their handshakes;
// every later pass replays only the established-flow traffic: per flow,
// perFlow MTU-sized server data frames with a bare client ACK after every
// second one, the 2:1 size mix of a bulk download.
func renderStream(seed uint64, n, perFlow int) (*workload, error) {
	r := newRenderer("stream", seed)
	r.w.advance = streamAdvance
	var payload []frame
	for len(r.w.flows) < n {
		c, tr := r.draw(false)
		ft, err := r.g.Flow(c.label, c.prov, tr, tracegen.FlowSpec{
			Start: traceBase, Duration: streamDuration, PayloadFrames: perFlow})
		if err != nil {
			return nil, fmt.Errorf("rendering stream flow %s/%s/%s: %w", c.label, c.prov, tr, err)
		}
		if !r.claim(ft) {
			continue
		}
		start := streamStagger * time.Duration(len(r.w.flows)) / time.Duration(n)
		hs := len(ft.Frames) - perFlow
		mark := len(r.frames)
		id := r.add(ft, start, hs)
		for i, fr := range ft.Frames[hs:] {
			if i%2 == 1 {
				ack := frame{off: start + fr.Offset + time.Millisecond, data: r.clientAck(ft), flow: id}
				r.frames = append(r.frames, ack)
			}
		}
		payload = append(payload, r.frames[mark+hs:]...)
	}
	sort.SliceStable(payload, func(i, j int) bool { return payload[i].off < payload[j].off })
	r.w.frames = payload
	return r.finish(), nil
}

// clientAck renders the client's acknowledgement of received data: a bare
// TCP ACK, or a short-header QUIC packet carrying an ACK frame's worth of
// opaque bytes.
func (r *renderer) clientAck(ft *tracegen.FlowTrace) []byte {
	ip := packet.IPv4{TTL: 62, Src: ft.ClientAddr, Dst: ft.ServerAddr, ID: uint16(r.rng.UintN(65536))}
	var seg []byte
	if ft.Transport == fingerprint.TCP {
		ip.Protocol = packet.ProtoTCP
		tcp := packet.TCP{SrcPort: ft.ClientPort, DstPort: ft.ServerPort,
			Seq: r.rng.Uint32(), Ack: r.rng.Uint32(), Flags: packet.FlagACK, Window: 2048}
		seg = tcp.Append(nil, nil, ft.ClientAddr, ft.ServerAddr)
	} else {
		ip.Protocol = packet.ProtoUDP
		body := make([]byte, 40)
		for i := range body {
			body[i] = byte(r.rng.UintN(256))
		}
		body[0] = 0x40 | body[0]&0x3f // short header, fixed bit set
		udp := packet.UDP{SrcPort: ft.ClientPort, DstPort: ft.ServerPort}
		seg = udp.Append(nil, body, ft.ClientAddr, ft.ServerAddr)
	}
	eth := packet.Ethernet{EtherType: packet.EtherTypeIPv4}
	return eth.Append(nil, ip.Append(nil, seg))
}

// render builds the named workload from seed.
func render(name string, seed uint64, sz sizes) (*workload, error) {
	switch name {
	case "churn", "daemon":
		// daemon replays churn's shape through the whole server; its own
		// name salts the renderer so the two never share frames.
		return renderChurn(name, seed, sz.churnFlows, false)
	case "adversarial":
		return renderChurn(name, seed, sz.churnFlows, true)
	case "stream":
		return renderStream(seed, sz.streamFlows, sz.streamFrames)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// passPackets lays a frame list out as ingest packets stamped for pass 0.
// Callers shift the timestamps in place as passes advance.
func passPackets(frames []frame) []pipeline.IngestPacket {
	out := make([]pipeline.IngestPacket, len(frames))
	for i, f := range frames {
		out[i] = pipeline.IngestPacket{TS: traceBase.Add(f.off), Data: f.data}
	}
	return out
}
