package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"videoplat/internal/pcap"
	"videoplat/internal/pipeline"
	"videoplat/internal/server"
	"videoplat/internal/telemetry"
)

// The serve phase offers a fixed packet rate while one closed-loop client
// cycles the read endpoints, so reads run beside window seals.
const serveRate = 50000 // packets per second

var serveEndpoints = []string{
	"/query?step=10m&by=platform",
	"/query?by=provider",
	"/metrics",
	"/stats",
}

// fillStore builds the store the daemon starts with: the server's default
// shape (1024 windows per tier, 10x and 60x downsampling tiers) holding
// sz.storeWindows one-minute windows that end where the replay's trace
// clock begins, each folded from sz.storeRecords reference records through
// a telemetry.Rollup. More windows than the raw tier holds means the store
// starts full: every live seal also evicts.
func fillStore(ref *reference, sz sizes) *telemetry.Store {
	store := telemetry.NewStore(telemetry.StoreConfig{Tiers: []time.Duration{10 * time.Minute, 60 * time.Minute}})
	roll := telemetry.NewRollup(time.Minute, store)
	start := traceBase.Add(-time.Duration(sz.storeWindows) * time.Minute)
	next := 0
	for w := 0; w < sz.storeWindows; w++ {
		for i := 0; i < sz.storeRecords; i++ {
			rec := *ref.records[next%len(ref.records)]
			next++
			d := rec.Duration()
			rec.LastSeen = start.Add(time.Duration(w)*time.Minute + time.Duration(i)*time.Millisecond)
			rec.FirstSeen = rec.LastSeen.Add(-d)
			roll.Add(&rec)
		}
	}
	roll.Flush()
	return store
}

// tally is the bench-owned telemetry.Sink: it sums what every sealed window
// says, as integers. Which window a flow lands in depends on the order
// records from different shards reach the rollup, so per-window cells are
// never compared, only these totals.
type tally struct {
	mu       sync.Mutex
	windows  int
	flows    int
	late     int
	bytes    int64
	verdicts map[string]uint64
}

func (t *tally) WriteWindow(w *telemetry.Window) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.windows++
	t.flows += w.Flows
	t.late += w.LateFlows
	for _, c := range w.ByProvider {
		t.bytes += c.BytesDown + c.BytesUp
	}
	if w.Quality != nil {
		if t.verdicts == nil {
			t.verdicts = map[string]uint64{}
		}
		for k, n := range w.Quality.Verdicts {
			t.verdicts[k] += n
		}
	}
	return nil
}

// source is the bench-owned server.Source. It serves the workload in whole
// passes through three phases — one warm pass, the timed replay
// repetitions unpaced, then the serve phase paced at serveRate — and
// returns io.EOF at a pass boundary, so every flow of every pass is
// complete. Every phase replays a fixed number of passes. It runs on the
// server's replay goroutine; the harness reads its fields only after the
// channel that publishes them is closed.
type source struct {
	pkts    []pcap.Packet
	flows   int
	advance time.Duration

	reps        int // replay repetitions
	repPasses   int // passes per replay repetition
	servePasses int // passes of the serve phase
	// drain returns once the shards have processed every frame handed over.
	// A repetition's clock stops after it, as a bare-Sharded repetition's
	// stops after its barrier.
	drain    func() error
	drainErr error
	// yard samples the yardstick; it runs on this goroutine at the
	// repetition boundaries, outside every repetition's clock.
	yard      func() float64
	yardNS    float64 // the sample before the current repetition or serve phase
	serveYard float64 // the mean of the samples on either side of the serve phase

	idx    int
	shift  time.Duration
	passes int

	phase     int // 0 warm, 1 replay, 2 serve
	phaseDone int // passes of the current repetition or serve phase replayed
	repStart  time.Time
	repCPU    time.Duration
	timed     []rep

	serveStart time.Time
	sent       int
	serving    chan struct{} // closed when the serve phase begins
	served     chan struct{} // closed at EOF
}

func newSource(w *workload, plan daemonPlan, y *yardstick) *source {
	s := &source{flows: len(w.flows), advance: w.advance, reps: plan.reps, repPasses: plan.repPasses, servePasses: plan.servePasses, yard: y.sample,
		serving: make(chan struct{}), served: make(chan struct{})}
	s.pkts = make([]pcap.Packet, len(w.frames))
	for i, f := range w.frames {
		s.pkts[i] = pcap.Packet{Timestamp: traceBase.Add(f.off), Data: f.data, OrigLen: len(f.data)}
	}
	return s
}

func (s *source) Next() (pcap.Packet, error) {
	if s.idx == len(s.pkts) {
		if s.endPass() {
			return pcap.Packet{}, io.EOF
		}
	}
	if s.phase == 2 && s.sent%benchBatch == 0 {
		due := s.serveStart.Add(time.Duration(float64(s.sent) / serveRate * float64(time.Second)))
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
	}
	p := s.pkts[s.idx]
	p.Timestamp = p.Timestamp.Add(s.shift)
	s.idx++
	s.sent++
	return p, nil
}

// settle drains the shards, keeping the first error for the oracle.
func (s *source) settle() {
	if err := s.drain(); err != nil && s.drainErr == nil {
		s.drainErr = err
	}
}

// endPass runs at every pass boundary and reports whether the replay is
// over. A pass is a whole number of ingest batches, so by now the server has
// handed every frame of it to the shards.
func (s *source) endPass() bool {
	s.idx = 0
	s.shift += s.advance
	s.passes++
	s.phaseDone++
	switch s.phase {
	case 0:
		s.settle()
		s.yardNS = s.yard()
		s.phase, s.phaseDone, s.repStart, s.repCPU = 1, 0, time.Now(), cpuTime()
	case 1:
		if s.phaseDone < s.repPasses {
			break
		}
		s.settle()
		r := rep{wall: time.Since(s.repStart), cpu: cpuTime() - s.repCPU,
			frames: s.repPasses * len(s.pkts), flows: s.repPasses * s.flows}
		after := s.yard()
		r.yardNS, s.yardNS = (s.yardNS+after)/2, after
		s.timed = append(s.timed, r)
		s.phaseDone, s.repStart, s.repCPU = 0, time.Now(), cpuTime()
		if len(s.timed) == s.reps {
			s.phase, s.serveStart, s.sent = 2, s.repStart, 0
			close(s.serving)
		}
	case 2:
		if s.phaseDone == s.servePasses {
			s.serveYard = (s.yardNS + s.yard()) / 2
			close(s.served)
			return true
		}
	}
	return false
}

// reply is one timed HTTP exchange.
type reply struct {
	endpoint int
	ns       int64
	bytes    int
}

// client is the one closed-loop reader: it cycles serveEndpoints over a
// single keep-alive connection a fixed number of times, stopping early only
// when stop closes (the serve phase ended first) or after maxBadReplies
// failures. A reply's latency runs from the request to the last body byte;
// validation happens after the clock stops.
type client struct {
	replies []reply
	bad     int
	problem string
}

const maxBadReplies = 100

func (c *client) run(hc *http.Client, addr string, cycles int, stop <-chan struct{}) {
	var body bytes.Buffer
	for i := 0; i < cycles*len(serveEndpoints) && c.bad < maxBadReplies; i++ {
		select {
		case <-stop:
			return
		default:
		}
		ep := i % len(serveEndpoints)
		t0 := time.Now()
		resp, err := hc.Get("http://" + addr + serveEndpoints[ep])
		if err != nil {
			c.fail(fmt.Sprintf("GET %s: %v", serveEndpoints[ep], err))
			continue
		}
		body.Reset()
		_, err = body.ReadFrom(resp.Body)
		resp.Body.Close()
		ns := time.Since(t0).Nanoseconds()
		c.replies = append(c.replies, reply{ep, ns, body.Len()})
		if err != nil || resp.StatusCode != http.StatusOK {
			c.fail(fmt.Sprintf("GET %s: status %d, read error %v", serveEndpoints[ep], resp.StatusCode, err))
			continue
		}
		if msg := validate(ep, body.Bytes()); msg != "" {
			c.fail(fmt.Sprintf("GET %s: %s", serveEndpoints[ep], msg))
		}
	}
}

func (c *client) fail(msg string) {
	c.bad++
	if c.problem == "" {
		c.problem = msg
	}
}

// validate checks that a 200 reply parses as what the endpoint serves.
func validate(endpoint int, body []byte) string {
	switch path := serveEndpoints[endpoint]; {
	case strings.HasPrefix(path, "/query"):
		var res telemetry.QueryResult
		if err := json.Unmarshal(body, &res); err != nil {
			return "reply is not a QueryResult: " + err.Error()
		}
		if len(res.Series) == 0 || res.SourceWindows == 0 {
			return "query over a full store returned no series"
		}
	case path == "/stats":
		var st server.Stats
		if err := json.Unmarshal(body, &st); err != nil {
			return "reply is not a Stats document: " + err.Error()
		}
	default:
		if !strings.Contains(string(body), "\nvideoplat_replay_packets_total ") {
			return "exposition lacks videoplat_replay_packets_total"
		}
	}
	return ""
}

// latencies returns the reply latencies of one endpoint.
func (c *client) latencies(endpoint int) []int64 {
	var out []int64
	for _, r := range c.replies {
		if r.endpoint == endpoint {
			out = append(out, r.ns)
		}
	}
	return out
}

// daemonRun is one finished run of the daemon workload.
type daemonRun struct {
	e2e
	client   client
	tally    *tally
	stats    server.Stats
	store    telemetry.StoreStats
	shutdown time.Duration
	passes   int
	// serveSpeed is the host's speed around the serve phase (see rep.hostSpeed).
	serveSpeed float64
}

// daemonPlan is the work one daemon run does, all of it fixed counts.
type daemonPlan struct {
	reps        int // replay repetitions
	repPasses   int // passes per replay repetition
	servePasses int // passes of the paced serve phase
	cycles      int // times the client goes round serveEndpoints
}

// The paced serve phase takes serveShare of a run's seconds, the replay
// repetitions the rest: daemonReps of them, fewer than a bare workload's so
// that each still lasts about 1.5 s. The client's serveCycles rounds at
// runSeconds fill about half of the serve phase on the reference host (a
// /query over the full store takes 30-45 ms there), so the count repeats
// exactly and is cut short only on a much slower one.
const (
	serveShare  = 0.4
	serveCycles = 40
	daemonReps  = 6
)

// planDaemon sizes a daemon run for seconds: reps replay repetitions, the
// frozen passes each scaled to the seconds the replay keeps.
func planDaemon(w *workload, seconds float64, sz sizes, reps int) daemonPlan {
	serveS := serveShare * seconds
	return daemonPlan{
		reps:        reps,
		repPasses:   passesFor("daemon", seconds, sz),
		servePasses: max(1, int(serveS*serveRate/float64(len(w.frames))+0.5)),
		cycles:      max(1, int(serveCycles*seconds/runSeconds+0.5)),
	}
}

// runDaemon runs the whole server in process on loopback: observer and
// tracer at vpserve's defaults, the pre-filled store, the bench sink.
func runDaemon(st *setup, plan daemonPlan, y *yardstick, heapBase uint64) (*daemonRun, error) {
	src := newSource(st.w, plan, y)
	sink := &tally{}
	srv, err := server.New(st.bank, src, server.Config{
		Addr:        "127.0.0.1:0",
		Shards:      benchShards,
		MaxFlows:    benchShards * benchMaxFlows,
		IdleTimeout: benchIdleTimeout,
		BatchSize:   benchBatch,
		Store:       st.store,
		Sink:        sink,
	})
	if err != nil {
		return nil, err
	}
	// One connection serves both the repetition drains and, after them, the
	// serve phase's client; the two never overlap.
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr, Timeout: 10 * time.Second}
	// GET /flows takes SnapshotFlows, which queues behind every shard's
	// pending frames: the same barrier a bare-Sharded repetition ends on.
	src.drain = func() error {
		resp, err := hc.Get("http://" + srv.Addr() + "/flows?limit=1")
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if _, err := io.Copy(io.Discard, resp.Body); err != nil {
			return err
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("GET /flows: status %d", resp.StatusCode)
		}
		return nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx) }()

	run := &daemonRun{tally: sink}
	select {
	case <-src.serving:
	case err := <-done:
		return nil, fmt.Errorf("daemon exited during replay: %v", err)
	}
	run.client.run(hc, srv.Addr(), plan.cycles, src.served)
	<-srv.ReplayDone()
	// The replay goroutine has exited, so the source's fields are safe to read.
	run.heapBytes = int64(liveHeap()) - int64(heapBase)

	t0 := time.Now()
	cancel()
	if err := <-done; err != nil {
		return nil, fmt.Errorf("daemon shutdown: %w", err)
	}
	run.shutdown = time.Since(t0)
	if conn, err := net.DialTimeout("tcp", srv.Addr(), 100*time.Millisecond); err == nil {
		conn.Close()
		return nil, fmt.Errorf("daemon still listening on %s after shutdown", srv.Addr())
	}

	run.reps, run.passes = src.timed, src.passes
	run.serveSpeed = yardRefNS / src.serveYard
	run.stats = srv.Snapshot()
	run.store = srv.Store().Stats()
	run.outcome = run.check(st, src.drainErr)
	return run, nil
}

// check closes the daemon oracle: the totals over every sealed window must
// equal the reference totals times the passes replayed, the program's own
// counters must agree, and every HTTP reply must have been a parseable 200.
func (r *daemonRun) check(st *setup, drainErr error) outcome {
	var o outcome
	o.table = r.stats.FlowTable
	o.ingest = pipeline.IngestStats{Ignored: r.stats.Ingest.IgnoredFrames, Filtered: r.stats.Ingest.FilteredFrames,
		DroppedResults: r.stats.DroppedResults, Stalls: r.stats.Ingest.Stalls,
		Migrations: r.stats.Ingest.Migrations, EarlyClassified: r.stats.Ingest.EarlyClassified}
	want := len(st.w.flows) * r.passes
	o.attempted = want + len(r.client.replies)
	abs := func(d int) int { return max(d, -d) }
	o.add(abs(r.tally.flows-want), "sealed windows hold %d flows, want %d", r.tally.flows, want)
	// Pending never reaches a window: the pipeline resolves it to
	// no-handshake when the flow is evicted or the daemon shuts down.
	wantVerdicts := map[string]uint64{}
	for v, n := range st.ref.verdicts {
		if pipeline.Verdict(v) == pipeline.VerdictPending {
			v = int(pipeline.VerdictNoHandshake)
		}
		wantVerdicts[pipeline.Verdict(v).String()] += n * uint64(r.passes)
	}
	for name := range r.tally.verdicts {
		wantVerdicts[name] += 0 // a verdict the reference never produced must count zero
	}
	for name, n := range wantVerdicts {
		got := r.tally.verdicts[name]
		o.add(abs(int(got)-int(n)), "sealed windows count %d %s flows, want %d", got, name, n)
	}
	if wantBytes := st.ref.bytes * int64(r.passes); r.tally.bytes != wantBytes {
		o.add(1, "sealed windows hold %d bytes, want %d", r.tally.bytes, wantBytes)
	}
	if int(r.stats.FinalizedFlows) != want {
		o.add(1, "daemon finalized %d flows, want %d", r.stats.FinalizedFlows, want)
	}
	if o.table.Inserted != uint64(want) {
		o.add(1, "flow table inserted %d flows, want %d", o.table.Inserted, want)
	}
	o.add(int(o.table.EvictedCap), "%d flows evicted by the cap", o.table.EvictedCap)
	o.add(int(o.ingest.Ignored), "%d frames ignored at ingest", o.ingest.Ignored)
	o.add(int(o.ingest.Filtered), "%d frames filtered at ingest", o.ingest.Filtered)
	o.add(int(r.stats.Rollup.SinkErrors), "%d sink write errors", r.stats.Rollup.SinkErrors)
	o.add(r.client.bad, "%d HTTP replies failed; first: %s", r.client.bad, r.client.problem)
	if len(r.client.replies) == 0 {
		o.add(1, "the serve phase completed no HTTP request")
	}
	if drainErr != nil {
		o.add(1, "draining the shards at a repetition's end: %v", drainErr)
	}
	return o
}
