package pipeline

import (
	"encoding/binary"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"videoplat/internal/fingerprint"
	"videoplat/internal/flowtable"
	"videoplat/internal/tracegen"
)

// packFrames encodes a frame sequence as fuzz input: each frame behind its
// big-endian 16-bit length.
func packFrames(frames [][]byte) []byte {
	var out []byte
	for _, fr := range frames {
		out = binary.BigEndian.AppendUint16(out, uint16(len(fr)))
		out = append(out, fr...)
	}
	return out
}

// splitFrames is packFrames' inverse on arbitrary bytes: a length that runs
// past the input takes what is left.
func splitFrames(data []byte) [][]byte {
	var frames [][]byte
	for len(data) >= 2 {
		n := int(binary.BigEndian.Uint16(data))
		data = data[2:]
		n = min(n, len(data))
		frames = append(frames, data[:n])
		data = data[n:]
	}
	return frames
}

// FuzzShardedMatchesPipeline feeds one arbitrary frame sequence to a
// Pipeline and to a one-shard Sharded — same bank, same bounded table, so
// eviction order is part of the comparison — and asserts that neither
// panics and that they agree on everything but how they account a frame
// with no flow to belong to: every terminal record in order, the verdict,
// migration and early-classification counts, the table counters. Sharded
// drops undecodable and off-443 frames at ingest, before a shard can count
// them, so Packets alone legitimately differs and the frames offered must
// equal the shard's Packets plus ingest's Ignored and Filtered. The Pipeline
// reads the frames where they lie and they stay as they are; the Sharded is
// lent them (frameLender.eachRecycled), each overwritten the moment the call
// returns and packed into the arena the frame before it used. The two share
// the whole flow stage, so state that aliases a frame instead of copying it
// reads the frame on one side and something else on the other, and the
// records differ. The corpus is seeded with every flow of the scenario
// corpus (tracegen.Corpus), the adversarial scenario flows, a
// handshake-then-bulk flow, a hello split over three segments and one
// re-cut, retransmitted and reordered (helloFlight.impair), so mutations
// start from frames that reach every branch of the keep rule and from flows
// that outlive their first frame.
func FuzzShardedMatchesPipeline(f *testing.F) {
	bank, _ := trainSmallBank(f, 31, 0.02)
	var scenario [][]byte
	for _, ft := range tracegen.Corpus() {
		f.Add(packFrames(frameData(ft)))
	}
	for i, ft := range scenarioEvalFlows(f) {
		frames := frameData(ft)
		f.Add(packFrames(frames))
		if i%3 == 0 {
			scenario = append(scenario, frames...)
		}
	}
	f.Add(packFrames(scenario)) // enough flows to evict by the cap
	quic, err := tracegen.New(9).Flow("windows_firefox", fingerprint.YouTube, fingerprint.QUIC,
		tracegen.FlowSpec{Options: fingerprint.Options{Migration: true}, PayloadFrames: 2})
	if err != nil {
		f.Fatal(err)
	}
	var bulk [][]byte
	for _, pkt := range withBulk(quic, 2, tracePackets(quic, 4)) {
		bulk = append(bulk, pkt.Data)
	}
	f.Add(packFrames(bulk))
	var split [][]byte
	splitHello, _ := splitHelloPackets(f, time.Time{})
	for _, pkt := range splitHello {
		split = append(split, pkt.Data)
	}
	f.Add(packFrames(split))
	// A hello re-cut, retransmitted and reordered on the way.
	impaired, _ := orderFreeSeeds(f)[0].impair(f, rngChooser{rand.New(rand.NewPCG(9, 9))})
	f.Add(packFrames(impaired))

	f.Fuzz(func(t *testing.T, data []byte) {
		start := time.Date(2023, 7, 7, 0, 0, 0, 0, time.UTC)
		var pkts []IngestPacket
		for i, fr := range splitFrames(data) {
			pkts = append(pkts, IngestPacket{TS: start.Add(time.Duration(i) * 300 * time.Millisecond), Data: fr})
		}
		config := func(evicted *[]*FlowRecord) Config {
			return Config{
				MaxFlows: 4, IdleTimeout: 3 * time.Second,
				ProviderHint: tracegen.ProviderOfAddr,
				OnEvict:      func(rec *FlowRecord, _ flowtable.Reason) { *evicted = append(*evicted, rec) },
			}
		}

		var want []*FlowRecord
		p := NewWithConfig(bank, config(&want))
		for _, pkt := range pkts {
			p.HandlePacket(pkt.TS, pkt.Data) // a classifier error is a verdict, checked below
		}
		want = append(want, p.Flows()...)

		var got []*FlowRecord
		s := NewShardedWithConfig(bank, 1, config(&got))
		go func() {
			for range s.Results() {
			}
		}()
		new(frameLender).eachRecycled(s, pkts)
		s.Close()
		got = append(got, s.Flows()...)

		if len(got) != len(want) {
			t.Fatalf("Sharded produced %d terminal records, Pipeline %d", len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Errorf("record %d: Sharded %+v, Pipeline %+v", i, got[i], want[i])
			}
		}
		ps, ss, ing := p.Stats(), s.shards[0].p.Stats(), s.IngestStats()
		if ss.Verdicts != ps.Verdicts || ss.EarlyClassified != ps.EarlyClassified {
			t.Errorf("Sharded counts %+v, Pipeline %+v", ss, ps)
		}
		if gt, wt := s.TableStats(), p.TableStats(); gt != wt {
			t.Errorf("Sharded table %+v, Pipeline %+v", gt, wt)
		}
		offered := uint64(len(pkts))
		if ps.Packets != offered || ss.Packets+ing.Ignored+ing.Filtered != offered {
			t.Errorf("%d frames offered: Pipeline counted %d, Sharded %d + %d ignored + %d filtered",
				offered, ps.Packets, ss.Packets, ing.Ignored, ing.Filtered)
		}
	})
}
