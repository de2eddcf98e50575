package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"videoplat/internal/fingerprint"
	"videoplat/internal/ml"
	"videoplat/internal/packet"
	"videoplat/internal/pcap"
	"videoplat/internal/pipeline"
	"videoplat/internal/telemetry"
	"videoplat/internal/tracegen"
)

func trainBank(t *testing.T) *pipeline.Bank {
	t.Helper()
	g := tracegen.New(9)
	ds, err := g.LabDataset(0.02, fingerprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bank, err := pipeline.TrainBank(ds, pipeline.TrainConfig{Forest: ml.ForestConfig{
		NumTrees: 15, MaxDepth: 20, MaxFeatures: 34, Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	return bank
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decoding: %v", url, err)
	}
}

// TestServeSynthReplayEndToEnd runs the daemon over a finite synthetic
// replay and exercises every operations endpoint while it runs and after a
// graceful shutdown.
func TestServeSynthReplayEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("bank training is slow")
	}
	var sinkBuf bytes.Buffer
	sink := telemetry.NewJSONLSink(&sinkBuf)
	srv, err := New(trainBank(t), NewSynthSource(3, 30), Config{
		Addr:        "127.0.0.1:0",
		Shards:      4,
		MaxFlows:    16, // small cap: force cap evictions
		IdleTimeout: 45 * time.Second,
		WindowWidth: time.Minute,
		Sink:        sink,
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- srv.Run(ctx) }()
	base := "http://" + srv.Addr()

	var health struct {
		Status string `json:"status"`
	}
	getJSON(t, base+"/healthz", &health)
	if health.Status != "ok" {
		t.Fatalf("healthz = %+v", health)
	}

	// /stats and /flows must be servable mid-replay.
	var sawLive bool
	deadline := time.After(30 * time.Second)
	for !sawLive {
		select {
		case <-deadline:
			t.Fatal("no live flows observed before replay finished")
		case <-srv.ReplayDone():
			sawLive = true // replay outran the poll loop; fine
		default:
			var st Stats
			getJSON(t, base+"/stats", &st)
			if st.Replay.Packets > 0 && st.FlowTable.Active > 0 {
				sawLive = true
				var fl struct {
					Active int `json:"active_flows"`
					Flows  []struct {
						SNI string `json:"sni"`
					} `json:"flows"`
				}
				getJSON(t, base+"/flows?limit=5", &fl)
				if fl.Active == 0 {
					t.Error("flows endpoint shows no active flows while stats does")
				}
				if len(fl.Flows) > 5 {
					t.Errorf("limit ignored: %d rows", len(fl.Flows))
				}
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	select {
	case <-srv.ReplayDone():
	case <-time.After(60 * time.Second):
		t.Fatal("replay did not finish")
	}
	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("run: %v", err)
	}

	// Post-shutdown invariants.
	st := srv.Snapshot()
	if st.Replay.Packets == 0 || !st.Replay.Done {
		t.Errorf("replay state = %+v", st.Replay)
	}
	if st.Replay.Error != "" {
		t.Errorf("replay error: %s", st.Replay.Error)
	}
	if st.FlowTable.Active > 16 {
		t.Errorf("active flows %d exceed the cap", st.FlowTable.Active)
	}
	if st.FlowTable.EvictedCap == 0 {
		t.Error("no cap evictions despite tiny table: flow table is not bounded")
	}
	if st.FlowVerdicts["classified"] == 0 {
		t.Error("no flows classified")
	}
	// Every inserted flow is finalized exactly once: evicted during the
	// run or drained at close.
	if st.FinalizedFlows != st.FlowTable.Inserted {
		t.Errorf("finalized %d != inserted %d", st.FinalizedFlows, st.FlowTable.Inserted)
	}
	if st.Rollup.Sealed == 0 || sink.Windows() != st.Rollup.Sealed {
		t.Errorf("sealed windows = %d, sink got %d", st.Rollup.Sealed, sink.Windows())
	}

	// The JSONL sink holds parseable windows accounting for every flow.
	var flows int
	sc := bufio.NewScanner(&sinkBuf)
	for sc.Scan() {
		var w telemetry.Window
		if err := json.Unmarshal(sc.Bytes(), &w); err != nil {
			t.Fatalf("bad sink line: %v", err)
		}
		flows += w.Flows
	}
	if uint64(flows) != st.FinalizedFlows {
		t.Errorf("sink windows cover %d flows, finalized %d", flows, st.FinalizedFlows)
	}
}

// TestServePCAPReplay replays a tracegen-written pcap file — the vpserve
// acceptance path — and checks /metrics exposition plus bounded memory.
func TestServePCAPReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("bank training is slow")
	}
	g := tracegen.New(21)
	var traces []*tracegen.FlowTrace
	start := time.Date(2023, 7, 7, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 12; i++ {
		flows, err := g.Session("windows_chrome", fingerprint.YouTube, fingerprint.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, ft := range flows {
			ft.Start = start.Add(time.Duration(i) * 20 * time.Second)
			traces = append(traces, ft)
		}
	}
	path := filepath.Join(t.TempDir(), "replay.pcap")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tracegen.WritePCAP(f, traces); err != nil {
		t.Fatal(err)
	}
	f.Close()

	src, err := OpenFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(trainBank(t), src, Config{Addr: "127.0.0.1:0", Shards: 2, MaxFlows: 8})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- srv.Run(ctx) }()

	select {
	case <-srv.ReplayDone():
	case <-time.After(60 * time.Second):
		t.Fatal("replay did not finish")
	}

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"videoplat_replay_packets_total",
		"videoplat_flows_active",
		`videoplat_flows_evicted_total{reason="cap"}`,
		"videoplat_replay_done 1",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}

	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("run: %v", err)
	}
	st := srv.Snapshot()
	var total int
	for _, ft := range traces {
		total += len(ft.Frames)
	}
	if st.Replay.Packets != uint64(total) {
		t.Errorf("replayed %d packets, pcap has %d", st.Replay.Packets, total)
	}
	if st.FlowTable.Active > 8 {
		t.Errorf("active flows %d exceed cap", st.FlowTable.Active)
	}
	if st.FlowTable.Inserted <= 8 && st.FlowTable.EvictedCap == 0 {
		t.Logf("note: only %d flows inserted", st.FlowTable.Inserted)
	}
}

// TestRatePacing checks the replay honours a packets/sec budget.
func TestRatePacing(t *testing.T) {
	if testing.Short() {
		t.Skip("bank training is slow")
	}
	srv, err := New(trainBank(t), NewSynthSource(5, 2), Config{
		Addr: "127.0.0.1:0", Shards: 1, Rate: 50})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	start := time.Now()
	go func() { runErr <- srv.Run(ctx) }()
	select {
	case <-srv.ReplayDone():
	case <-time.After(30 * time.Second):
		t.Fatal("replay did not finish")
	}
	elapsed := time.Since(start)
	pkts := srv.Snapshot().Replay.Packets
	minWall := time.Duration(float64(pkts-1)/50*float64(time.Second)) / 2 // generous slack
	if elapsed < minWall {
		t.Errorf("replayed %d packets in %v; pacing at 50 pps demands >= %v", pkts, elapsed, minWall)
	}
	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestSynthSourceDeterministicAndFinite pins the synthetic source contract.
func TestSynthSourceDeterministicAndFinite(t *testing.T) {
	count := func() (int, string) {
		src := NewSynthSource(11, 3)
		n := 0
		var sig string
		var prev time.Time
		for {
			pkt, err := src.Next()
			if err == io.EOF {
				return n, sig
			}
			if err != nil {
				t.Fatal(err)
			}
			if pkt.Timestamp.Before(prev) {
				t.Fatalf("timestamp regression at packet %d: %s after %s", n, pkt.Timestamp, prev)
			}
			prev = pkt.Timestamp
			n++
			if n <= 3 {
				sig += fmt.Sprintf("%d@%s;", len(pkt.Data), pkt.Timestamp)
			}
		}
	}
	n1, sig1 := count()
	n2, sig2 := count()
	if n1 == 0 || n1 != n2 || sig1 != sig2 {
		t.Errorf("source not deterministic: %d/%d packets, %q vs %q", n1, n2, sig1, sig2)
	}
}

// sliceSource replays a fixed packet list, then EOF.
type sliceSource struct{ pkts []pcap.Packet }

func (s *sliceSource) Next() (pcap.Packet, error) {
	if len(s.pkts) == 0 {
		return pcap.Packet{}, io.EOF
	}
	pkt := s.pkts[0]
	s.pkts = s.pkts[1:]
	return pkt, nil
}

// TestFlowsRowsNameProviderAndEndpoints pins two things about a /flows row.
// A classified flow names its provider whether or not it ever showed an SNI:
// a QUIC 0-RTT resumption accepted through the provider hint is classified
// with none. And src and dst read back through netip.ParseAddrPort, which an
// unbracketed IPv6 address does not.
func TestFlowsRowsNameProviderAndEndpoints(t *testing.T) {
	var pkts []pcap.Packet
	g := tracegen.New(41)
	for _, label := range fingerprint.AllPlatformLabels() {
		if !fingerprint.SupportsQUIC(label, fingerprint.YouTube) {
			continue
		}
		ft, err := g.Flow(label, fingerprint.YouTube, fingerprint.QUIC,
			tracegen.FlowSpec{Options: fingerprint.Options{ZeroRTT: true}, PayloadFrames: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, fr := range ft.Frames {
			pkts = append(pkts, pcap.Packet{Timestamp: ft.Start.Add(fr.Offset), Data: fr.Data, OrigLen: len(fr.Data)})
		}
	}
	src6, dst6 := netip.MustParseAddr("2001:db8::7"), netip.MustParseAddr("2001:db8::10")
	syn := packet.TCP{SrcPort: 50000, DstPort: 443, Flags: packet.FlagSYN, Window: 64240}
	ip6 := packet.IPv6{HopLimit: 64, Protocol: packet.ProtoTCP, Src: src6, Dst: dst6}
	eth := packet.Ethernet{EtherType: packet.EtherTypeIPv6}
	frame := eth.Append(nil, ip6.Append(nil, syn.Append(nil, nil, src6, dst6)))
	pkts = append(pkts, pcap.Packet{Timestamp: pkts[len(pkts)-1].Timestamp, Data: frame, OrigLen: len(frame)})

	// A bank that knows one platform is sure of it on any input — the only
	// kind that accepts a flow on its TTL and first packet size alone.
	ds, err := tracegen.New(9).LabDataset(0.02, fingerprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	one := &tracegen.Dataset{}
	for _, ft := range ds.Flows {
		if ft.Label == "android_chrome" {
			one.Flows = append(one.Flows, ft)
		}
	}
	bank, err := pipeline.TrainBank(one, pipeline.TrainConfig{Forest: ml.ForestConfig{
		NumTrees: 5, MaxDepth: 4, MaxFeatures: 34, Seed: 7}})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(bank, &sliceSource{pkts: pkts}, Config{
		Addr:           "127.0.0.1:0",
		Shards:         2,
		ProviderHint:   tracegen.ProviderOfAddr,
		EarlyMinMargin: -1, // accept any margin the selector let through
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- srv.Run(ctx) }()
	select {
	case <-srv.ReplayDone():
	case <-time.After(30 * time.Second):
		t.Fatal("replay did not finish")
	}
	var fl struct {
		Flows []flowSummary `json:"flows"`
	}
	getJSON(t, "http://"+srv.Addr()+"/flows?limit=1000", &fl)
	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("run: %v", err)
	}

	var resumed, v6 int
	for _, row := range fl.Flows {
		if row.Platform != "" && row.Provider == "" {
			t.Errorf("flow %s -> %s is classified as %s with no provider", row.Src, row.Dst, row.Platform)
		}
		if row.Platform != "" && row.SNI == "" {
			resumed++
		}
		for _, end := range []string{row.Src, row.Dst} {
			ap, err := netip.ParseAddrPort(end)
			if err != nil {
				t.Errorf("endpoint %q does not parse: %v", end, err)
			} else if ap.Addr().Is6() {
				v6++
			}
		}
	}
	if resumed == 0 || v6 != 2 {
		t.Fatalf("%d rows: %d classified with no SNI and %d IPv6 endpoints, want some and 2: nothing was checked",
			len(fl.Flows), resumed, v6)
	}
}
