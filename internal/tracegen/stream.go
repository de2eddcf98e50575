package tracegen

import (
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"videoplat/internal/fingerprint"
	"videoplat/internal/pcap"
)

// ErrUnsupported is returned by Stream.Next when a fixed platform does not
// serve the provider a session drew: one StreamConfig.Providers names, or
// any provider when the platform is not one of AllPlatformLabels.
var ErrUnsupported = errors.New("tracegen: unsupported platform/provider pair")

// StreamConfig holds a Stream's settable values.
type StreamConfig struct {
	Seed     uint64
	Sessions int // sessions before io.EOF; <= 0 means unlimited
	// DriftAfter > 0 renders sessions from that index on with the open-set
	// profile drift: a fleet update, the concept drift of the paper's §5.3.
	DriftAfter int
	// Adversarial is the fraction of sessions rendered with one adversarial
	// scenario (ECH, QUIC 0-RTT or migration, chosen uniformly), in [0, 1].
	Adversarial float64
	Platform    string // every session's label; "" draws one the provider supports
	// Providers lists the providers sessions draw from. Empty means all of
	// them, or with Platform set, all Platform supports (SupportMatrix).
	Providers []fingerprint.Provider
}

// Stream renders Fig 2 video sessions one after another and yields their
// frames as one time-ordered packet stream. Session i starts at i·30 s of
// trace time, so the frames of overlapping sessions interleave. It is the
// synthetic traffic of both cmd/vpgen, which writes it to a capture, and
// vpserve -synth, which replays it live. A Stream from Replay renders no
// session: it hands out fixed traces' frames.
type Stream struct {
	cfg      StreamConfig
	g        *Generator
	rng      *rand.Rand
	start    time.Time
	rendered int // sessions rendered so far
	left     int // sessions still to render
	flows    int // flows rendered so far
	queue    []pcap.Packet
}

// NewStream returns the stream cfg describes. The same cfg always yields the
// same packets, timestamps and bytes.
func NewStream(cfg StreamConfig) *Stream {
	cfg.Adversarial = min(max(cfg.Adversarial, 0), 1)
	if len(cfg.Providers) == 0 {
		for _, prov := range fingerprint.AllProviders() {
			if cfg.Platform == "" || fingerprint.SupportMatrix(cfg.Platform, prov) {
				cfg.Providers = append(cfg.Providers, prov)
			}
		}
		if len(cfg.Providers) == 0 { // an unknown platform: Next says so
			cfg.Providers = fingerprint.AllProviders()
		}
	}
	left := cfg.Sessions
	if left <= 0 {
		left = math.MaxInt
	}
	return &Stream{
		cfg:   cfg,
		g:     New(cfg.Seed),
		rng:   rand.New(rand.NewPCG(cfg.Seed, 2)),
		start: time.Date(2023, 7, 7, 12, 0, 0, 0, time.UTC),
		left:  left,
	}
}

// Flows reports how many flows the stream has rendered so far, or replays.
func (s *Stream) Flows() int { return s.flows }

// Next returns the next packet, or io.EOF once every session is out. Each
// packet's Data is its own buffer.
func (s *Stream) Next() (pcap.Packet, error) {
	for {
		// Render the next session once the queue head reaches its start:
		// a session's frames span minutes, so sessions overlap, and the
		// timestamps handed out never go back.
		start := s.start.Add(time.Duration(s.rendered) * 30 * time.Second)
		if s.left > 0 && (len(s.queue) == 0 || !s.queue[0].Timestamp.Before(start)) {
			if err := s.renderSession(start); err != nil {
				return pcap.Packet{}, err
			}
			continue
		}
		if len(s.queue) == 0 {
			return pcap.Packet{}, io.EOF
		}
		pkt := s.queue[0]
		s.queue = s.queue[1:]
		return pkt, nil
	}
}

// WritePCAP writes the rest of the stream to w as a libpcap file and reports
// how many packets it wrote. On an unlimited stream it returns only on error.
func (s *Stream) WritePCAP(w io.Writer) (int, error) {
	pw, err := pcap.NewWriter(w, 0)
	if err != nil {
		return 0, err
	}
	for n := 0; ; n++ {
		pkt, err := s.Next()
		if err == io.EOF {
			return n, nil
		}
		if err == nil {
			err = pw.WritePacket(pkt.Timestamp, pkt.Data)
		}
		if err != nil {
			return n, err
		}
	}
}

// renderSession draws the next session's provider, then its label (unless
// the platform is fixed), then its scenario, renders it from start on and
// merges its frames into the queue.
func (s *Stream) renderSession(start time.Time) error {
	prov := s.cfg.Providers[s.rng.IntN(len(s.cfg.Providers))]
	label := s.cfg.Platform
	if label == "" {
		var labels []string
		for _, l := range fingerprint.AllPlatformLabels() {
			if fingerprint.SupportMatrix(l, prov) {
				labels = append(labels, l)
			}
		}
		label = labels[s.rng.IntN(len(labels))]
	} else if !fingerprint.SupportMatrix(label, prov) {
		return fmt.Errorf("%w: %s does not support %s", ErrUnsupported, label, prov)
	}
	opts := fingerprint.Options{OpenSet: s.cfg.DriftAfter > 0 && s.rendered >= s.cfg.DriftAfter}
	if s.cfg.Adversarial > 0 && s.rng.Float64() < s.cfg.Adversarial {
		switch s.rng.IntN(3) {
		case 0:
			opts.ECH = true
		case 1:
			opts.ZeroRTT = true
		default:
			opts.Migration = true
		}
	}
	flows, err := s.g.Session(label, prov, opts)
	if err != nil {
		return fmt.Errorf("tracegen: rendering session: %w", err)
	}
	for _, ft := range flows {
		ft.Start = start
	}
	// Sort only the new session, then merge it into the (always-sorted)
	// queue: a full-queue re-sort per session is quadratic over a long soak
	// replay. Ties keep queue-before-session and session append order, what
	// a stable sort of the concatenation gives.
	s.queue = mergeByTime(s.queue, timeOrdered(flows))
	s.rendered++
	s.left--
	s.flows += len(flows)
	return nil
}

// timeOrdered returns the traces' frames as packets stamped at their flow's
// Start plus their offset, stably sorted by timestamp: ties keep trace order,
// then frame order.
func timeOrdered(traces []*FlowTrace) []pcap.Packet {
	var pkts []pcap.Packet
	for _, ft := range traces {
		for _, fr := range ft.Frames {
			pkts = append(pkts, pcap.Packet{Timestamp: ft.Start.Add(fr.Offset), Data: fr.Data, OrigLen: len(fr.Data)})
		}
	}
	sort.SliceStable(pkts, func(i, j int) bool { return pkts[i].Timestamp.Before(pkts[j].Timestamp) })
	return pkts
}

// mergeByTime merges two timestamp-sorted packet runs, preferring queue on
// ties so the merge is stable with queue first.
func mergeByTime(queue, session []pcap.Packet) []pcap.Packet {
	if len(queue) == 0 {
		return session
	}
	if len(session) == 0 {
		return queue
	}
	out := make([]pcap.Packet, 0, len(queue)+len(session))
	i, j := 0, 0
	for i < len(queue) && j < len(session) {
		if session[j].Timestamp.Before(queue[i].Timestamp) {
			out = append(out, session[j])
			j++
		} else {
			out = append(out, queue[i])
			i++
		}
	}
	out = append(out, queue[i:]...)
	return append(out, session[j:]...)
}
