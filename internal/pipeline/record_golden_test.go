package pipeline

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"videoplat/internal/features"
	"videoplat/internal/fingerprint"
	"videoplat/internal/flowtable"
	"videoplat/internal/ml"
	"videoplat/internal/obs"
	"videoplat/internal/tracegen"
)

var update = flag.Bool("update", false, "rewrite "+recordsGoldenPath+" from the current pipeline")

const recordsGoldenPath = "testdata/finalized_records.golden"

// recordsGoldenBank is a small versioned bank trained without Amazon, so an
// Amazon flow's classification fails and leaves as VerdictError.
func recordsGoldenBank(t *testing.T) *Bank {
	t.Helper()
	ds, err := tracegen.New(1).LabDataset(0.02, fingerprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var kept tracegen.Dataset
	for _, ft := range ds.Flows {
		if ft.Provider != fingerprint.Amazon {
			kept.Flows = append(kept.Flows, ft)
		}
	}
	bank, err := TrainBank(&kept, TrainConfig{Forest: ml.ForestConfig{
		NumTrees: 10, MaxDepth: 20, MaxFeatures: 34, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	bank.Version = "v0042"
	return bank
}

// untimed returns rec with a wall-clock ClassifyNanos replaced by 1.
func untimed(rec FlowRecord) FlowRecord {
	if rec.ClassifyNanos != 0 {
		rec.ClassifyNanos = 1
	}
	return rec
}

// TestFinalizedRecordsUnchanged pins every field of every record the
// pipeline hands out: the finalized stream (OnEvict, emptied by Drain), the
// OnClassify records and one live Flows() view taken mid-replay, for the
// scenario corpus (tracegen.Corpus) replayed twice, under a helloCap of 1024
// that only its oversized flow outgrows: without a provider hint and
// untimed, then with a hint and a tracer sampling every flow, whose spans
// are pinned too. The prediction golden suites compare what the classifier
// says; this one compares what a flow's state keeps of it, its telemetry
// included, so a change to how a flow is stored must leave the file
// byte-identical. A timed replay's ClassifyNanos and span durations are wall
// clock, so the file says only whether they are set. Run with -update to
// rewrite it.
func TestFinalizedRecordsUnchanged(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a bank")
	}
	bank := recordsGoldenBank(t)
	pkts := replayPackets(tracegen.Corpus())
	var buf bytes.Buffer
	var seen [NumVerdicts]int
	var statuses [3]int
	for _, hinted := range []bool{false, true} {
		var evicted, classified []string
		cfg := Config{
			MaxFlows:    24,
			IdleTimeout: 30 * time.Second,
			helloCap:    1024,
			OnEvict: func(rec *FlowRecord, reason flowtable.Reason) {
				seen[rec.Verdict]++
				if rec.Verdict.ClassifierRan() {
					statuses[rec.Prediction.Status]++
				}
				evicted = append(evicted, fmt.Sprintf("%v %v %+v", rec.Key, reason, untimed(*rec)))
			},
			OnClassify: func(rec *FlowRecord, hs *features.HandshakeInfo) {
				classified = append(classified, fmt.Sprintf("%v %s quic=%v %+v", rec.Key, hs.Hello.ServerName(), hs.QUIC, untimed(*rec)))
			},
		}
		if hinted {
			cfg.ProviderHint = tracegen.ProviderOfAddr
			cfg.Tracer = obs.NewTracer(obs.TracerConfig{SampleEvery: 1})
		}
		p := NewWithConfig(bank, cfg)
		var live []string
		for i, pkt := range pkts {
			p.HandlePacket(pkt.TS, pkt.Data)
			if i == len(pkts)/2 {
				for _, rec := range p.Flows() {
					live = append(live, fmt.Sprintf("%v %+v", rec.Key, untimed(*rec)))
				}
			}
		}
		p.Drain()
		var spans []string
		for _, sp := range cfg.Tracer.Snapshot(0).Recent {
			spans = append(spans, fmt.Sprintf("%s frames=%d first=%v sni=%q model=%q verdict=%q status=%q classify_ns>0=%v",
				sp.Flow, sp.Frames, sp.FirstPacket, sp.SNI, sp.ModelVersion, sp.Verdict, sp.Status, sp.ClassifyNS > 0))
		}
		fmt.Fprintf(&buf, "# hinted=%v: %d packets, stats %+v, table %+v\n", hinted, len(pkts), p.Stats(), p.TableStats())
		for _, sec := range []struct {
			name  string
			lines []string
		}{{"finalized", evicted}, {"classify", classified}, {"live", live}, {"spans", spans}} {
			sort.Strings(sec.lines)
			fmt.Fprintf(&buf, "## %s (%d)\n", sec.name, len(sec.lines))
			for _, l := range sec.lines {
				buf.WriteString(l)
				buf.WriteByte('\n')
			}
		}
	}

	// The corpus must keep reaching every kind of record it exists to pin.
	for v := VerdictClassified; int(v) < NumVerdicts; v++ {
		if seen[v] == 0 {
			t.Errorf("no %s record in the corpus", v)
		}
	}
	for s, n := range statuses {
		if n == 0 {
			t.Errorf("no %s prediction in the corpus", Status(s))
		}
	}

	path := filepath.FromSlash(recordsGoldenPath)
	if !bytes.Contains(buf.Bytes(), []byte("ClassifyNanos:1}")) {
		t.Error("the timed replay classified no flow")
	}
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		gotLines, wantLines := bytes.Split(buf.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
			if !bytes.Equal(gotLines[i], wantLines[i]) {
				t.Fatalf("records differ from %s at line %d:\ngot:  %s\nwant: %s", path, i+1, gotLines[i], wantLines[i])
			}
		}
		t.Fatalf("records differ from %s: %d lines, want %d", path, len(gotLines), len(wantLines))
	}
}
