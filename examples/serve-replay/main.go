// Serve-replay: run the streaming ingest daemon end to end — render a
// synthetic traffic capture with tracegen, write it to a pcap file, replay
// it through a vpserve-style Server with a bounded flow table, and query
// the live operations API (/stats, /flows, /metrics) while the replay runs.
// The windowed rollups land in a JSONL file that is printed at the end.
//
// This is the in-process equivalent of:
//
//	vpgen -sessions 20 -out traffic.pcap
//	vpserve -pcap traffic.pcap -rollup windows.jsonl -exit-when-done
//	curl localhost:8080/stats
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"videoplat/internal/fingerprint"
	"videoplat/internal/ml"
	"videoplat/internal/pipeline"
	"videoplat/internal/server"
	"videoplat/internal/telemetry"
	"videoplat/internal/tracegen"
)

func main() {
	dir, err := os.MkdirTemp("", "serve-replay")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// 1. Render 20 synthetic video sessions into a pcap file, exactly what
	//    cmd/vpgen produces.
	pcapPath := filepath.Join(dir, "traffic.pcap")
	writeTraffic(pcapPath)

	// 2. Train a small classifier bank.
	ds, err := tracegen.New(1).LabDataset(0.04, fingerprint.Options{})
	if err != nil {
		log.Fatal(err)
	}
	bank, err := pipeline.TrainBank(ds, pipeline.TrainConfig{Forest: ml.ForestConfig{
		NumTrees: 15, MaxDepth: 20, MaxFeatures: 34, Seed: 1}})
	if err != nil {
		log.Fatal(err)
	}

	// 3. Assemble the daemon: pcap replay source, bounded flow tables,
	//    1-minute rollup windows into a JSONL sink, ops API on a free port.
	src, err := server.OpenFileSource(pcapPath)
	if err != nil {
		log.Fatal(err)
	}
	rollupPath := filepath.Join(dir, "windows.jsonl")
	sinkFile, err := os.Create(rollupPath)
	if err != nil {
		log.Fatal(err)
	}
	srv, err := server.New(bank, src, server.Config{
		Addr:        "127.0.0.1:0",
		MaxFlows:    64,
		IdleTimeout: 90 * time.Second,
		WindowWidth: time.Minute,
		Rate:        2000, // pace the replay so we can watch it live
		Sink:        telemetry.NewJSONLSink(sinkFile),
	})
	if err != nil {
		log.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- srv.Run(ctx) }()
	base := "http://" + srv.Addr()
	fmt.Printf("daemon up: %s\n", base)

	// 4. Query the operations API mid-replay.
	time.Sleep(150 * time.Millisecond)
	fmt.Println("\n--- /stats during replay ---")
	fmt.Println(get(base + "/stats"))
	fmt.Println("--- /flows?limit=3 during replay ---")
	fmt.Println(get(base + "/flows?limit=3"))

	// 5. Wait for the replay to finish, then shut down gracefully (drains
	//    shards, rolls up residual flows, flushes the final window).
	<-srv.ReplayDone()
	fmt.Println("--- /metrics after replay ---")
	fmt.Println(get(base + "/metrics"))
	cancel()
	if err := <-runErr; err != nil {
		log.Fatal(err)
	}

	st := srv.Snapshot()
	fmt.Printf("replayed %d packets; %d flows tracked, %d classified, %d evicted, %d rollup windows\n",
		st.Replay.Packets, st.FlowTable.Inserted, st.ClassifiedFlows,
		st.FlowTable.Evicted(), st.Rollup.Sealed)

	windows, err := os.ReadFile(rollupPath)
	if err != nil {
		log.Fatal(err)
	}
	sinkFile.Close()
	fmt.Println("\n--- rollup windows (JSONL) ---")
	fmt.Print(string(windows))
}

// writeTraffic renders 20 mixed video sessions into a pcap at path.
func writeTraffic(path string) {
	g := tracegen.New(7)
	start := time.Date(2023, 7, 7, 12, 0, 0, 0, time.UTC)
	var traces []*tracegen.FlowTrace
	specs := []struct {
		label string
		prov  fingerprint.Provider
	}{
		{"windows_chrome", fingerprint.YouTube},
		{"iOS_nativeApp", fingerprint.Netflix},
		{"macOS_safari", fingerprint.Disney},
		{"androidTV_nativeApp", fingerprint.Amazon},
	}
	for i := 0; i < 20; i++ {
		sp := specs[i%len(specs)]
		flows, err := g.Session(sp.label, sp.prov, fingerprint.Options{})
		if err != nil {
			log.Fatal(err)
		}
		for _, ft := range flows {
			ft.Start = start.Add(time.Duration(i) * 15 * time.Second)
			traces = append(traces, ft)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	defer f.Close()
	if err := tracegen.WritePCAP(f, traces); err != nil {
		log.Fatal(err)
	}
}

func get(url string) string {
	resp, err := http.Get(url)
	if err != nil {
		log.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		log.Fatal(err)
	}
	return string(body)
}
