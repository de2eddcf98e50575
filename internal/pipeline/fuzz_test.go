package pipeline

import (
	"encoding/binary"
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
// equal the shard's Packets plus ingest's Ignored and Filtered. The corpus
// is seeded with the adversarial scenario flows and a handshake-then-bulk
// flow, so mutations start from frames that reach every branch of the keep
// rule.
func FuzzShardedMatchesPipeline(f *testing.F) {
	bank, _ := trainSmallBank(f, 31, 0.02)
	var scenario [][]byte
	for i, ft := range scenarioEvalFlows(f) {
		var frames [][]byte
		for _, fr := range ft.Frames {
			frames = append(frames, fr.Data)
		}
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

	f.Fuzz(func(t *testing.T, data []byte) {
		frames := splitFrames(data)
		start := time.Date(2023, 7, 7, 0, 0, 0, 0, time.UTC)
		ts := func(i int) time.Time { return start.Add(time.Duration(i) * 300 * time.Millisecond) }
		config := func(evicted *[]*FlowRecord) Config {
			return Config{
				MaxFlows: 4, IdleTimeout: 3 * time.Second,
				ProviderHint: tracegen.ProviderOfAddr,
				OnEvict:      func(rec *FlowRecord, _ flowtable.Reason) { *evicted = append(*evicted, rec) },
			}
		}

		var want []*FlowRecord
		p := NewWithConfig(bank, config(&want))
		for i, fr := range frames {
			p.HandlePacket(ts(i), fr) // a classifier error is a verdict, checked below
		}
		want = append(want, p.Flows()...)

		var got []*FlowRecord
		s := NewShardedWithConfig(bank, 1, config(&got))
		go func() {
			for range s.Results() {
			}
		}()
		for i, fr := range frames {
			s.HandlePacket(ts(i), fr)
		}
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
		if ss.Verdicts != ps.Verdicts || ss.Migrations != ps.Migrations || ss.EarlyClassified != ps.EarlyClassified {
			t.Errorf("Sharded counts %+v, Pipeline %+v", ss, ps)
		}
		if gt, wt := s.TableStats(), p.TableStats(); gt != wt {
			t.Errorf("Sharded table %+v, Pipeline %+v", gt, wt)
		}
		offered := uint64(len(frames))
		if ps.Packets != offered || ss.Packets+ing.Ignored+ing.Filtered != offered {
			t.Errorf("%d frames offered: Pipeline counted %d, Sharded %d + %d ignored + %d filtered",
				offered, ps.Packets, ss.Packets, ing.Ignored, ing.Filtered)
		}
	})
}
