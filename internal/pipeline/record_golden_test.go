package pipeline

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand/v2"
	"net/netip"
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
	"videoplat/internal/packet"
	"videoplat/internal/tlsproto"
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

// recordsGoldenCorpus renders the frames TestFinalizedRecordsUnchanged
// replays, one flow every two seconds of packet time, merged in timestamp
// order: one open-set flow per (platform, provider, transport), which gives
// composite, partial and abstained predictions and, for Amazon, classifier
// errors; ECH over TCP and QUIC; 0-RTT, confirmed and cut short; QUIC
// migration mid-stream and mid-handshake; and hand-built not-video,
// no-handshake and oversized (over a helloCap of 1024) TCP flows.
func recordsGoldenCorpus(t *testing.T) []IngestPacket {
	t.Helper()
	base := time.Date(2024, 3, 1, 20, 0, 0, 0, time.UTC)
	type stamped struct {
		IngestPacket
		seq int
	}
	var all []stamped
	flows := 0
	add := func(frames []tracegen.Frame) {
		start := base.Add(time.Duration(flows) * 2 * time.Second)
		flows++
		for _, fr := range frames {
			all = append(all, stamped{IngestPacket{TS: start.Add(fr.Offset), Data: fr.Data}, len(all)})
		}
	}
	g := tracegen.New(77)
	render := func(label string, prov fingerprint.Provider, tr fingerprint.Transport, spec tracegen.FlowSpec) *tracegen.FlowTrace {
		if spec.Duration == 0 {
			spec.Duration = 20 * time.Second
		}
		if spec.PayloadFrames == 0 {
			spec.PayloadFrames = 3
		}
		ft, err := g.Flow(label, prov, tr, spec)
		if err != nil {
			t.Fatal(err)
		}
		return ft
	}

	open, err := tracegen.New(78).OpenSetDataset(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, ft := range open.Flows {
		add(ft.Frames)
	}
	for _, prov := range []fingerprint.Provider{fingerprint.Netflix, fingerprint.Amazon} {
		add(render("windows_chrome", prov, fingerprint.TCP, tracegen.FlowSpec{Options: fingerprint.Options{ECH: true}}).Frames)
	}
	add(render("android_chrome", fingerprint.YouTube, fingerprint.QUIC, tracegen.FlowSpec{Options: fingerprint.Options{ECH: true}}).Frames)
	add(render("android_chrome", fingerprint.YouTube, fingerprint.QUIC, tracegen.FlowSpec{Options: fingerprint.Options{ZeroRTT: true}}).Frames)
	cut := render("iOS_chrome", fingerprint.YouTube, fingerprint.QUIC, tracegen.FlowSpec{Options: fingerprint.Options{ZeroRTT: true}})
	add(cut.Frames[:2]) // early data only: the short-header confirmation never arrives
	add(render("macOS_safari", fingerprint.Netflix, fingerprint.TCP, tracegen.FlowSpec{Options: fingerprint.Options{ZeroRTT: true}}).Frames)
	for _, mid := range []bool{false, true} {
		ft := render("android_chrome", fingerprint.YouTube, fingerprint.QUIC,
			tracegen.FlowSpec{Options: fingerprint.Options{Migration: true}, MigrateMidHandshake: mid})
		if !ft.Migrated {
			t.Fatal("migration flow did not migrate")
		}
		add(ft.Frames)
	}

	handmade := func(host byte) *tcpFlowFrames {
		ff := newTCPFlowFrames()
		ff.src = netip.AddrFrom4([4]byte{192, 168, 9, host})
		return ff
	}
	var frames []tracegen.Frame
	at := func(ms int, data []byte) {
		frames = append(frames, tracegen.Frame{Offset: time.Duration(ms) * time.Millisecond, ClientToServer: true, Data: data})
	}
	oversized := handmade(1)
	at(0, oversized.client(nil, packet.FlagSYN))
	at(10, oversized.client(endlessRecordChunk(true, 600), packet.FlagACK|packet.FlagPSH))
	at(20, oversized.client(endlessRecordChunk(false, 600), packet.FlagACK|packet.FlagPSH))
	add(frames)

	fp, err := fingerprint.Generate(rand.New(rand.NewPCG(1, 1)), "windows_firefox", fingerprint.Netflix, fingerprint.TCP, fingerprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := range fp.Hello.Extensions {
		if fp.Hello.Extensions[i].Type == tlsproto.ExtServerName {
			fp.Hello.Extensions[i].Data = tlsproto.ServerNameData("www.example.org")
		}
	}
	frames = nil
	notVideo := handmade(2)
	at(0, notVideo.client(nil, packet.FlagSYN))
	at(10, notVideo.client(fp.Hello.MarshalRecord(), packet.FlagACK|packet.FlagPSH))
	at(20, notVideo.server(make([]byte, 900), packet.FlagACK))
	add(frames)

	frames = nil
	silent := handmade(3)
	for i := 0; i < 10; i++ {
		at(10*i, silent.client(nil, packet.FlagACK)) // client frames, no hello
	}
	add(frames)

	sort.SliceStable(all, func(i, j int) bool {
		if !all[i].TS.Equal(all[j].TS) {
			return all[i].TS.Before(all[j].TS)
		}
		return all[i].seq < all[j].seq
	})
	out := make([]IngestPacket, len(all))
	for i, s := range all {
		out[i] = s.IngestPacket
	}
	return out
}

// TestFinalizedRecordsUnchanged pins every field of every record the
// pipeline hands out: the finalized stream (OnEvict, emptied by Drain), the
// OnClassify records and one live Flows() view taken mid-replay, for the
// corpus of recordsGoldenCorpus replayed twice: without a provider hint and
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
	pkts := recordsGoldenCorpus(t)
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
