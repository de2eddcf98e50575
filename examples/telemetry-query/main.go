// Telemetry-query: the streaming daemon end to end, and the capacity-planning
// scenario (examples/capacity-planning) reworked as live queries against it.
// A synthetic capture is rendered to a pcap file (what cmd/vpgen writes) and
// replayed through a vpserve-style Server, which rolls finalized flows into
// 1-minute windows and retains them in the queryable telemetry store (with a
// 5-minute downsampling tier and JSONL persistence). An "operator" then reads
// the ops API (/stats, /flows, /metrics) and asks the planning questions over
// /query: which provider dominates, what bandwidth should each platform be
// provisioned for, and what history survives a restart.
//
// This is the in-process equivalent of:
//
//	vpgen -sessions 40 -seed 11 -out traffic.pcap
//	vpserve -pcap traffic.pcap -window 1m -telemetry-tiers 5m \
//	        -telemetry-persist history.jsonl
//	curl localhost:8080/stats
//	curl 'localhost:8080/query?by=provider&step=5m'
//	curl 'localhost:8080/query?by=platform'
//	curl 'localhost:8080/windows?tier=5m'
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"videoplat/internal/fingerprint"
	"videoplat/internal/ml"
	"videoplat/internal/pipeline"
	"videoplat/internal/server"
	"videoplat/internal/telemetry"
	"videoplat/internal/tracegen"
)

func main() {
	dir, err := os.MkdirTemp("", "telemetry-query")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	histPath := filepath.Join(dir, "history.jsonl")

	// 1. Train a small classifier bank.
	ds, err := tracegen.New(1).LabDataset(0.04, fingerprint.Options{})
	if err != nil {
		log.Fatal(err)
	}
	bank, err := pipeline.TrainBank(ds, pipeline.TrainConfig{Forest: ml.ForestConfig{
		NumTrees: 15, MaxDepth: 20, MaxFeatures: 34, Seed: 1}})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Build a telemetry store with a 5-minute downsampling tier and
	//    JSONL persistence, and a daemon replaying a 40-session pcap file.
	pcapPath := filepath.Join(dir, "traffic.pcap")
	writeTraffic(pcapPath)
	src, err := server.OpenFileSource(pcapPath)
	if err != nil {
		log.Fatal(err)
	}
	hist, err := os.OpenFile(histPath, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		log.Fatal(err)
	}
	// The server hands every sealed window to the store and then the sink:
	// the JSONL file is the archive, the store what /query reads.
	srv, err := server.New(bank, src, server.Config{
		Addr:        "127.0.0.1:0",
		WindowWidth: time.Minute,
		Store:       telemetry.NewStore(telemetry.StoreConfig{Tiers: []time.Duration{5 * time.Minute}}),
		Sink:        telemetry.NewJSONLSink(hist),
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- srv.Run(ctx) }()
	base := "http://" + srv.Addr()
	fmt.Printf("daemon up: %s\n", base)

	// 3. Wait for the replay, then query the daemon like a capacity
	//    planner would.
	<-srv.ReplayDone()
	for srv.Store().Stats().Tiers[0].Windows == 0 {
		time.Sleep(10 * time.Millisecond) // let the first evictions roll up
	}

	fmt.Println("\n--- ops API (/stats, /flows?limit=3, /metrics) ---")
	var st server.Stats
	getJSON(base+"/stats", &st)
	fmt.Printf("  replayed %d packets; %d flows tracked, %d classified, %d rollup windows sealed\n",
		st.Replay.Packets, st.FlowTable.Inserted, st.FlowVerdicts["classified"], st.Rollup.Sealed)
	var flows struct {
		Flows []struct {
			SNI      string `json:"sni"`
			Platform string `json:"platform"`
		} `json:"flows"`
	}
	getJSON(base+"/flows?limit=3", &flows)
	for _, f := range flows.Flows {
		fmt.Printf("  live flow: %-32s -> %s\n", f.SNI, f.Platform)
	}
	fmt.Printf("  /metrics: %d videoplat_* sample lines\n", strings.Count(getText(base+"/metrics"), "\nvideoplat_"))

	fmt.Println("\n--- provider demand over time (/query?by=provider&step=5m) ---")
	var byProv telemetry.QueryResult
	getJSON(base+"/query?by=provider&step=5m", &byProv)
	for _, sr := range byProv.Series {
		fmt.Printf("  %-10s", sr.Key)
		var bytes int64
		for _, p := range sr.Points {
			fmt.Printf("  %s=%5.1fMB", p.Start.Format("15:04"), float64(p.BytesDown)/1e6)
			bytes += p.BytesDown
		}
		fmt.Printf("  total=%.1fMB\n", float64(bytes)/1e6)
	}

	fmt.Println("\n--- per-platform provisioning (/query?by=platform) ---")
	var byPlat telemetry.QueryResult
	getJSON(base+"/query?by=platform&step=60m", &byPlat)
	for _, sr := range byPlat.Series {
		p := sr.Points[0]
		fmt.Printf("  %-22s %3d flows, mean %6.3f Mbps, peak %6.3f Mbps\n",
			sr.Key, p.Flows, p.MeanMbpsDown, p.PeakMbpsDown)
	}

	fmt.Println("\n--- busiest 5-minute bucket (/query?step=5m) ---")
	var total telemetry.QueryResult
	getJSON(base+"/query?step=5m", &total)
	var peak telemetry.QueryPoint
	for _, p := range total.Series[0].Points {
		if p.BytesDown > peak.BytesDown {
			peak = p
		}
	}
	fmt.Printf("  %s–%s: %d flows, %.1f MB down\n",
		peak.Start.Format("15:04"), peak.End.Format("15:04"), peak.Flows, float64(peak.BytesDown)/1e6)

	fmt.Println("\n--- downsampled history (/windows?tier=5m) ---")
	var wins struct {
		Count   int                 `json:"count"`
		Windows []*telemetry.Window `json:"windows"`
	}
	getJSON(base+"/windows?tier=5m", &wins)
	fmt.Printf("  %d coarse buckets retained (raw windows compact 5:1)\n", wins.Count)

	// 4. Graceful shutdown, then prove the history outlives the daemon:
	//    a fresh store reloads the persisted JSONL and answers the same
	//    totals — the restart story of -telemetry-persist.
	cancel()
	if err := <-runErr; err != nil {
		log.Fatal(err)
	}
	final, err := srv.Store().Query(time.Time{}, time.Time{}, time.Hour, telemetry.GroupTotal)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := hist.Seek(0, 0); err != nil {
		log.Fatal(err)
	}
	reborn := telemetry.NewStore(telemetry.StoreConfig{})
	n, err := reborn.Reload(hist)
	if err != nil {
		log.Fatal(err)
	}
	reloaded, err := reborn.Query(time.Time{}, time.Time{}, time.Hour, telemetry.GroupTotal)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrestart survival: reloaded %d windows from %s\n", n, filepath.Base(histPath))
	fmt.Printf("  flows before shutdown: %d, after reload: %d (must match)\n",
		sumFlows(final), sumFlows(reloaded))
}

func sumFlows(res *telemetry.QueryResult) int {
	var n int
	for _, sr := range res.Series {
		for _, p := range sr.Points {
			n += p.Flows
		}
	}
	return n
}

// writeTraffic renders 40 mixed video sessions — the daemon's own synthetic
// workload, and what vpgen -sessions 40 -seed 11 writes — into a pcap at path.
func writeTraffic(path string) {
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := tracegen.NewStream(tracegen.StreamConfig{Seed: 11, Sessions: 40}).WritePCAP(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
}

func getText(url string) string {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Fatalf("GET %s: %s", url, resp.Status)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatalf("GET %s: %v", url, err)
	}
	return string(body)
}

func getJSON(url string, out any) {
	if err := json.Unmarshal([]byte(getText(url)), out); err != nil {
		log.Fatalf("GET %s: %v", url, err)
	}
}
