package main

import (
	"bytes"
	"encoding/csv"
	"testing"
	"time"

	"videoplat/internal/fingerprint"
	"videoplat/internal/tracegen"
)

// TestServerFirstCaptureExtractsSameRows feeds vpextract one capture twice:
// as rendered, and with every flow's first server frame ahead of its first
// client frame — what a two-tap merge or a capture started mid-flow looks
// like. The client is the endpoint talking to :443 (pipeline.ClientSide),
// not whoever the capture shows first, so both yield the same rows.
func TestServerFirstCaptureExtractsSameRows(t *testing.T) {
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
	rows := func(name string) [][]string {
		t.Helper()
		var capture, out bytes.Buffer
		if err := tracegen.WritePCAP(&capture, traces); err != nil {
			t.Fatal(err)
		}
		if err := extract(bytes.NewReader(capture.Bytes()), &out); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		recs, err := csv.NewReader(&out).ReadAll()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return recs[1:] // drop the header
	}

	want := rows("in order")
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
	got := rows("server first")
	if len(got) != len(want) {
		t.Fatalf("server-first capture: %d rows, want %d", len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Errorf("row %d column %d: server-first %q, in order %q", i, j, got[i][j], want[i][j])
			}
		}
	}
}
