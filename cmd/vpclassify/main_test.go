package main

import (
	"bytes"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"videoplat/internal/fingerprint"
	"videoplat/internal/ml"
	"videoplat/internal/pipeline"
	"videoplat/internal/tracegen"
)

// TestEveryFlowPrintedOnce replays four flows through a bank that knows
// YouTube only: a plain YouTube/TCP flow, a 0-RTT YouTube/QUIC resumption, a
// YouTube/TCP flow cut before its ClientHello, and a Netflix/TCP flow the
// bank has no models for. Every one must come out as exactly one row — the
// cut flow once the end of the capture drains it, the Netflix flow as an
// error verdict rather than an aborted replay — and the summary's verdict
// counts must add up to the flows the table inserted.
func TestEveryFlowPrintedOnce(t *testing.T) {
	lab, err := tracegen.New(3).LabDataset(0.03, fingerprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	youtube := &tracegen.Dataset{}
	for _, ft := range lab.Flows {
		if ft.Provider == fingerprint.YouTube {
			youtube.Flows = append(youtube.Flows, ft)
		}
	}
	bank, err := pipeline.TrainBank(youtube, pipeline.TrainConfig{
		Forest: ml.ForestConfig{NumTrees: 5, MaxDepth: 15, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}

	g := tracegen.New(17)
	start := time.Date(2023, 7, 7, 12, 0, 0, 0, time.UTC)
	flow := func(label string, prov fingerprint.Provider, tr fingerprint.Transport, opts fingerprint.Options) *tracegen.FlowTrace {
		t.Helper()
		start = start.Add(time.Second)
		ft, err := g.Flow(label, prov, tr, tracegen.FlowSpec{Start: start, Duration: 10 * time.Second, Options: opts})
		if err != nil {
			t.Fatal(err)
		}
		return ft
	}
	plain := flow("windows_chrome", fingerprint.YouTube, fingerprint.TCP, fingerprint.Options{})
	zeroRTT := flow("android_chrome", fingerprint.YouTube, fingerprint.QUIC, fingerprint.Options{ZeroRTT: true})
	cut := flow("macOS_safari", fingerprint.YouTube, fingerprint.TCP, fingerprint.Options{})
	cut.Frames = cut.Frames[:3] // the handshake stops before the ClientHello
	netflix := flow("windows_firefox", fingerprint.Netflix, fingerprint.TCP, fingerprint.Options{})

	var capture, out bytes.Buffer
	if _, err := tracegen.Replay([]*tracegen.FlowTrace{plain, zeroRTT, cut, netflix}).WritePCAP(&capture); err != nil {
		t.Fatal(err)
	}
	if err := classify(bytes.NewReader(capture.Bytes()), bank, &out); err != nil {
		t.Fatalf("classify: %v\n%s", err, out.String())
	}

	rowText, summary, ok := strings.Cut(out.String(), "\n\n")
	if !ok {
		t.Fatalf("no summary after the rows:\n%s", out.String())
	}
	// A row is "provider/transport SNI -> outcome ...", or "- key -> verdict
	// ..." for a flow whose SNI never surfaced.
	rows := strings.Split(rowText, "\n")
	bySNI := map[string]string{}
	byOutcome := map[string]int{}
	for _, row := range rows {
		lhs, rhs, ok := strings.Cut(row, " -> ")
		if !ok {
			t.Fatalf("row %q has no outcome", row)
		}
		name, outcome := strings.Fields(lhs)[1], strings.Fields(rhs)[0]
		bySNI[name] = outcome
		byOutcome[outcome]++
	}
	if len(rows) != 4 {
		t.Errorf("%d rows, want 4:\n%s", len(rows), rowText)
	}
	if got := bySNI[plain.SNI]; got != "abstained" && got != "partial" && !slices.Contains(fingerprint.AllPlatformLabels(), got) {
		t.Errorf("plain flow: outcome %q, want the classifier's", got)
	}
	if got := bySNI[netflix.SNI]; got != "error" {
		t.Errorf("netflix flow: outcome %q, want error", got)
	}
	for _, v := range []pipeline.Verdict{pipeline.VerdictAbstainedZeroRTT, pipeline.VerdictNoHandshake, pipeline.VerdictError} {
		if byOutcome[v.String()] != 1 {
			t.Errorf("%d rows with verdict %s, want 1:\n%s", byOutcome[v.String()], v, rowText)
		}
	}

	// The summary: packets, flows (the table's insertions), then one count
	// per verdict, which must add up to the flows and to the rows.
	counts := map[string]uint64{}
	var verdicts uint64
	for _, line := range strings.Split(strings.TrimSpace(summary), "\n") {
		name, n, ok := strings.Cut(line, ": ")
		v, err := strconv.ParseUint(n, 10, 64)
		if !ok || err != nil {
			t.Fatalf("summary line %q is not name: count", line)
		}
		counts[name] = v
		if name != "packets" && name != "flows" {
			verdicts += v
		}
	}
	if counts["flows"] != 4 || verdicts != counts["flows"] {
		t.Errorf("summary: %d flows inserted, verdicts sum to %d, want 4 and 4:\n%s", counts["flows"], verdicts, summary)
	}
}
