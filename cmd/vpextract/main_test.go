package main

import (
	"bytes"
	"encoding/csv"
	"testing"
	"time"

	"videoplat/internal/fingerprint"
	"videoplat/internal/packet"
	"videoplat/internal/tracegen"
)

// sessionTraces renders three platforms' YouTube sessions, 30 s apart.
func sessionTraces(t *testing.T) []*tracegen.FlowTrace {
	t.Helper()
	g := tracegen.New(5)
	var traces []*tracegen.FlowTrace
	for i, label := range []string{"windows_chrome", "iOS_nativeApp", "macOS_safari"} {
		flows, err := g.Session(label, fingerprint.YouTube, fingerprint.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, ft := range flows {
			ft.Start = time.Date(2023, 7, 7, 12, 0, 30*i, 0, time.UTC)
			traces = append(traces, ft)
		}
	}
	return traces
}

// rows runs extract over traces written as one capture and returns the CSV
// rows, header dropped.
func rows(t *testing.T, name string, traces []*tracegen.FlowTrace) [][]string {
	t.Helper()
	var capture, out bytes.Buffer
	if _, err := tracegen.Replay(traces).WritePCAP(&capture); err != nil {
		t.Fatal(err)
	}
	if err := extract(bytes.NewReader(capture.Bytes()), &out); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	recs, err := csv.NewReader(&out).ReadAll()
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return recs[1:]
}

// sameRows reports every cell where got differs from want.
func sameRows(t *testing.T, name string, got, want [][]string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", name, len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Errorf("row %d column %d: %s %q, in order %q", i, j, name, got[i][j], want[i][j])
			}
		}
	}
}

// TestServerFirstCaptureExtractsSameRows feeds vpextract one capture twice:
// as rendered, and with every flow's first server frame ahead of its first
// client frame — what a two-tap merge or a capture started mid-flow looks
// like. The client is the endpoint talking to :443 (pipeline.ClientSide),
// not whoever the capture shows first, so both yield the same rows.
func TestServerFirstCaptureExtractsSameRows(t *testing.T) {
	traces := sessionTraces(t)
	want := rows(t, "in order", traces)
	if len(want) != len(traces) {
		t.Fatalf("in order: %d rows for %d flows", len(want), len(traces))
	}

	for _, ft := range traces {
		client, server := -1, -1
		for i, fr := range ft.Frames {
			if fr.ClientToServer && client < 0 {
				client = i
			}
			if !fr.ClientToServer && server < 0 {
				server = i
			}
		}
		if client < 0 || server < 0 {
			t.Fatalf("flow %s has no frames in one direction", ft.Label)
		}
		ft.Frames[server].Offset = ft.Frames[client].Offset - time.Millisecond
	}
	sameRows(t, "server first", rows(t, "server first", traces), want)
}

// TestReorderedHelloCaptureExtractsSameRows feeds vpextract a capture whose
// TCP ClientHellos each arrive as two segments, the second first, then the
// first twice — a reordering, lossy path with a retransmission — and gets
// the rows of the clean capture.
func TestReorderedHelloCaptureExtractsSameRows(t *testing.T) {
	traces := sessionTraces(t)
	want := rows(t, "in order", traces)
	cut := 0
	for _, ft := range traces {
		for i, fr := range ft.Frames {
			var parser packet.Parser
			var p packet.Parsed
			if err := parser.Parse(fr.Data, &p); err != nil {
				t.Fatal(err)
			}
			if !fr.ClientToServer || !p.Has(packet.LayerTCP) || len(p.Payload) == 0 {
				continue
			}
			hello, k := p.Payload, len(p.Payload)/2
			segment := func(off int, data []byte, delay time.Duration) tracegen.Frame {
				tcp := p.TCP
				tcp.Seq += uint32(off)
				ip := packet.IPv4{TTL: p.TTL(), Protocol: packet.ProtoTCP, Src: p.IP4.Src, Dst: p.IP4.Dst}
				eth := packet.Ethernet{EtherType: packet.EtherTypeIPv4}
				seg := tcp.Append(nil, data, ip.Src, ip.Dst)
				return tracegen.Frame{Offset: fr.Offset + delay, ClientToServer: true, Data: eth.Append(nil, ip.Append(nil, seg))}
			}
			ft.Frames = append(ft.Frames[:i], append([]tracegen.Frame{
				segment(k, hello[k:], 0),
				segment(0, hello[:k], 100*time.Microsecond),
				segment(0, hello[:k], 200*time.Microsecond),
			}, ft.Frames[i+1:]...)...)
			cut++
			break
		}
	}
	if cut == 0 {
		t.Fatal("no TCP hello to re-cut")
	}
	sameRows(t, "reordered", rows(t, "reordered", traces), want)
}
