package pipeline

import (
	"net/netip"
	"testing"

	"videoplat/internal/fingerprint"
	"videoplat/internal/packet"
	"videoplat/internal/tracegen"
)

// TestServerFirstFlowOrientation pins clientSide: a flow whose first frame
// at the tap comes from the server — its first server frame delivered ahead
// of the SYN or Initial, as a two-tap merge or a daemon started mid-flow
// delivers it — is still oriented client to server. It classifies, and its
// downstream bytes (the paper's Fig 9/10 quantity) are booked as downstream,
// exactly as the in-order render's are. With both ports 443 nothing names
// the client, and the first packet's direction stands.
func TestServerFirstFlowOrientation(t *testing.T) {
	if testing.Short() {
		t.Skip("bank training is slow")
	}
	bank, _ := trainSmallBank(t, 31, 0.02)

	// run feeds pkts to a Pipeline or a four-shard Sharded and returns the
	// one flow record they must produce.
	run := func(name string, sharded bool, pkts []IngestPacket) *FlowRecord {
		t.Helper()
		var recs []*FlowRecord
		if sharded {
			s := NewShardedWithConfig(bank, 4, Config{})
			go func() {
				for range s.Results() {
				}
			}()
			s.HandlePacketBatch(pkts)
			s.Close()
			recs = s.Flows()
		} else {
			p := New(bank)
			for _, pkt := range pkts {
				if _, err := p.HandlePacket(pkt.TS, pkt.Data); err != nil {
					t.Fatal(err)
				}
			}
			recs = p.Flows()
		}
		if len(recs) != 1 {
			t.Fatalf("%s: tracked %d flows, want 1", name, len(recs))
		}
		return recs[0]
	}
	entry := map[bool]string{false: "Pipeline", true: "Sharded"}

	for _, tr := range []fingerprint.Transport{fingerprint.TCP, fingerprint.QUIC} {
		ft, err := tracegen.New(61).Flow("windows_chrome", fingerprint.YouTube, tr, tracegen.FlowSpec{PayloadFrames: 3})
		if err != nil {
			t.Fatal(err)
		}
		inOrder := tracePackets(ft, 0)
		first := 0
		for ft.Frames[first].ClientToServer {
			first++
		}
		serverFirst := append([]IngestPacket{inOrder[first]}, inOrder[:first]...)
		serverFirst = append(serverFirst, inOrder[first+1:]...)

		want := run(tr.String()+" in order", false, inOrder)
		if want.Verdict != VerdictClassified || want.BytesDown <= want.BytesUp {
			t.Fatalf("%s in order: verdict %s, %d bytes up, %d down — not the video flow this test needs",
				tr, want.Verdict, want.BytesUp, want.BytesDown)
		}
		for _, sharded := range []bool{false, true} {
			name := tr.String() + " server first, " + entry[sharded]
			got := run(name, sharded, serverFirst)
			if got.Key != ft.Key() {
				t.Errorf("%s: record key %v, want the client's %v", name, got.Key, ft.Key())
			}
			if got.Verdict != want.Verdict || got.Prediction.Platform != want.Prediction.Platform {
				t.Errorf("%s: %s as %q, in order %s as %q", name,
					got.Verdict, got.Prediction.Platform, want.Verdict, want.Prediction.Platform)
			}
			if got.BytesUp != want.BytesUp || got.BytesDown != want.BytesDown ||
				got.PacketsUp != want.PacketsUp || got.PacketsDown != want.PacketsDown {
				t.Errorf("%s: %d bytes / %d packets up, %d / %d down; in order %d / %d up, %d / %d down", name,
					got.BytesUp, got.PacketsUp, got.BytesDown, got.PacketsDown,
					want.BytesUp, want.PacketsUp, want.BytesDown, want.PacketsDown)
			}
		}
	}

	a := netip.MustParseAddrPort("203.0.113.10:443")
	b := netip.MustParseAddrPort("192.168.1.7:443")
	both := []IngestPacket{
		{Data: craftFrame(a, b, packet.ProtoTCP, packet.FlagACK, make([]byte, 100), 0)},
		{Data: craftFrame(b, a, packet.ProtoTCP, packet.FlagACK, make([]byte, 1400), 0)},
		{Data: craftFrame(a, b, packet.ProtoTCP, packet.FlagACK, make([]byte, 10), 0)},
	}
	wantKey := packet.FlowKey{Src: a.Addr(), Dst: b.Addr(), SrcPort: 443, DstPort: 443, Proto: packet.ProtoTCP}
	for _, sharded := range []bool{false, true} {
		name := "both ports 443, " + entry[sharded]
		got := run(name, sharded, both)
		if got.Key != wantKey || got.BytesUp != 110 || got.PacketsUp != 2 || got.BytesDown != 1400 || got.PacketsDown != 1 {
			t.Errorf("%s: key %v, %d bytes / %d packets up, %d / %d down; want the first packet's direction up: %v, 110 / 2, 1400 / 1",
				name, got.Key, got.BytesUp, got.PacketsUp, got.BytesDown, got.PacketsDown, wantKey)
		}
	}
}

// TestFlowSpansPacketTime pins that a record's FirstSeen and LastSeen are the
// earliest and latest packet times of the flow, whatever order its frames
// arrive in. Two taps merged without sorting deliver the first server frame
// ahead of the SYN, and a frame stamped earlier than the one before it last;
// the record still spans the flow's packet times, as the flow table's idle
// clock does, so Duration and MbpsDown are the flow's.
func TestFlowSpansPacketTime(t *testing.T) {
	bank := platformBank(t, "windows_chrome", fingerprint.TCP, "")
	ft, err := tracegen.New(62).Flow("windows_chrome", fingerprint.YouTube, fingerprint.TCP, tracegen.FlowSpec{})
	if err != nil {
		t.Fatal(err)
	}
	inOrder := tracePackets(ft, 0)
	n := len(inOrder)
	inOrder[n-1].TS = inOrder[n-3].TS // the last frame carries an earlier stamp
	server := 0
	for ft.Frames[server].ClientToServer {
		server++
	}
	pkts := append([]IngestPacket{inOrder[server]}, inOrder[:server]...)
	pkts = append(pkts, inOrder[server+1:]...)
	first, last := pkts[0].TS, pkts[0].TS
	for _, pkt := range pkts {
		if pkt.TS.Before(first) {
			first = pkt.TS
		}
		if pkt.TS.After(last) {
			last = pkt.TS
		}
	}
	if first.Equal(pkts[0].TS) || last.Equal(pkts[n-1].TS) {
		t.Fatal("arrival order matches packet time: not the input this test needs")
	}

	p := New(bank)
	for _, pkt := range pkts {
		if _, err := p.HandlePacket(pkt.TS, pkt.Data); err != nil {
			t.Fatal(err)
		}
	}
	s := NewShardedWithConfig(bank, 1, Config{})
	s.HandlePacketBatch(pkts)
	s.Close()
	for name, recs := range map[string][]*FlowRecord{"Pipeline": p.Flows(), "Sharded": s.Flows()} {
		if len(recs) != 1 {
			t.Fatalf("%s: tracked %d flows, want 1", name, len(recs))
		}
		rec := recs[0]
		if !rec.FirstSeen.Equal(first) || !rec.LastSeen.Equal(last) {
			t.Errorf("%s: flow seen %v to %v after start, packets span %v to %v", name,
				rec.FirstSeen.Sub(ft.Start), rec.LastSeen.Sub(ft.Start), first.Sub(ft.Start), last.Sub(ft.Start))
		}
	}
}
