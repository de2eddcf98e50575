package server

import (
	"context"
	"io"
	"testing"
	"time"

	"videoplat/internal/pcap"
	"videoplat/internal/pipeline"
)

// garbageSource yields frames that cannot carry a flow, then EOF — for
// exercising the ingest drop counters end to end.
type garbageSource struct{ n int }

func (g *garbageSource) Next() (pcap.Packet, error) {
	if g.n <= 0 {
		return pcap.Packet{}, io.EOF
	}
	g.n--
	return pcap.Packet{Timestamp: time.Now(), Data: []byte{0xde, 0xad}}, nil
}

// TestServerReportsIngestCounters runs a replay of undecodable frames and
// checks they surface as ignored_frames (not as shard traffic), with the
// batch counter advancing.
func TestServerReportsIngestCounters(t *testing.T) {
	srv, err := New(&pipeline.Bank{}, &garbageSource{n: 10}, Config{
		Addr: "127.0.0.1:0", Shards: 2, BatchSize: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runErr := make(chan error, 1)
	go func() { runErr <- srv.Run(ctx) }()
	select {
	case <-srv.ReplayDone():
	case <-time.After(10 * time.Second):
		t.Fatal("replay did not finish")
	}
	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("run: %v", err)
	}

	st := srv.Snapshot()
	if st.Ingest.IgnoredFrames != 10 {
		t.Errorf("ignored_frames = %d, want 10", st.Ingest.IgnoredFrames)
	}
	if st.Replay.Packets != 10 {
		t.Errorf("replay packets = %d, want 10", st.Replay.Packets)
	}
	if st.Ingest.Batches < 3 {
		t.Errorf("batches = %d, want >= 3 for 10 frames at batch size 4", st.Ingest.Batches)
	}
	if st.Ingest.BatchSize != 4 {
		t.Errorf("batch_size = %d, want 4", st.Ingest.BatchSize)
	}
	if st.FlowTable.Inserted != 0 {
		t.Errorf("flow table saw %d inserts from undecodable frames", st.FlowTable.Inserted)
	}
}
