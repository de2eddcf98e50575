package server

import (
	"bytes"
	"context"
	"encoding/gob"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"videoplat/internal/drift"
	"videoplat/internal/fingerprint"
	"videoplat/internal/leakcheck"
	"videoplat/internal/ml"
	"videoplat/internal/obs"
	"videoplat/internal/pipeline"
	"videoplat/internal/registry"
	"videoplat/internal/tracegen"
)

func trainBankSeed(t *testing.T, seed uint64) *pipeline.Bank {
	t.Helper()
	ds, err := tracegen.New(seed).LabDataset(0.02, fingerprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bank, err := pipeline.TrainBank(ds, pipeline.TrainConfig{Forest: ml.ForestConfig{
		NumTrees: 12, MaxDepth: 20, MaxFeatures: 34, Seed: seed}})
	if err != nil {
		t.Fatal(err)
	}
	return bank
}

func postJSON(t *testing.T, url string, out any) (int, string) {
	t.Helper()
	resp, err := http.Post(url, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode == http.StatusOK && out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("POST %s: decoding %q: %v", url, body, err)
		}
	}
	return resp.StatusCode, string(body)
}

// TestShutdownJoinsEveryGoroutine is the goroutine audit of the daemon's
// lifecycle. Run starts the replay, the HTTP server and the retrainer host;
// evicted flows are folded on the shard workers New started. All of them
// must have exited once Run returns from a cancellation mid-replay.
func TestShutdownJoinsEveryGoroutine(t *testing.T) {
	leakcheck.Check(t)
	srv, err := New(&pipeline.Bank{}, synth(3, 0), Config{Addr: "127.0.0.1:0", Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- srv.Run(ctx) }()
	for srv.packets.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	var st Stats
	getJSON(t, "http://"+srv.Addr()+"/stats", &st)
	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("run: %v", err)
	}
}

// modelsDoc mirrors the /models response shape.
type modelsDoc struct {
	Active   string              `json:"active"`
	Swaps    uint64              `json:"swaps"`
	History  []string            `json:"history"`
	Versions []registry.Manifest `json:"versions"`
}

// TestModelsEndpointsHotSwapRoundTrip drives the lifecycle API against a
// live daemon: list, operator promote (a zero-downtime swap under live
// replay), rollback, and export of the active bank.
func TestModelsEndpointsHotSwapRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("bank training is slow")
	}
	leakcheck.Check(t)
	reg, err := registry.New(registry.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	bankA := trainBankSeed(t, 9)
	mA, err := reg.Add(bankA, "initial", 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Promote(mA.ID); err != nil {
		t.Fatal(err)
	}
	bankB := trainBankSeed(t, 10)
	if _, err := reg.Add(bankB, "operator candidate", 10); err != nil {
		t.Fatal(err)
	}

	journal := obs.NewJournal(64, nil)
	srv, err := New(reg.Current().Bank, synth(3, 500), Config{
		Addr: "127.0.0.1:0", Shards: 2, Registry: reg, Journal: journal,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- srv.Run(ctx) }()
	base := "http://" + srv.Addr()

	var doc modelsDoc
	getJSON(t, base+"/models", &doc)
	if doc.Active != "v0001" || len(doc.Versions) != 2 {
		t.Fatalf("models = %+v", doc)
	}

	// Promote the candidate while the replay classifies: a live hot-swap.
	code, body := postJSON(t, base+"/models/promote?version=v0002", nil)
	if code != http.StatusOK {
		t.Fatalf("promote: %d %s", code, body)
	}
	getJSON(t, base+"/models", &doc)
	if doc.Active != "v0002" || doc.Swaps != 1 {
		t.Fatalf("after promote: %+v", doc)
	}
	if got := srv.sharded.Bank().Version; got != "v0002" {
		t.Fatalf("pipeline bank after promote = %q", got)
	}
	var st Stats
	getJSON(t, base+"/stats", &st)
	if st.Models.ActiveVersion != "v0002" || st.Models.Versions != 2 {
		t.Fatalf("stats models = %+v", st.Models)
	}

	// Unknown version: a clean client error, no swap.
	if code, _ := postJSON(t, base+"/models/promote?version=v9999", nil); code != http.StatusBadRequest {
		t.Fatalf("bogus promote returned %d", code)
	}

	// Rollback returns to v0001.
	code, body = postJSON(t, base+"/models/rollback", nil)
	if code != http.StatusOK {
		t.Fatalf("rollback: %d %s", code, body)
	}
	if got := srv.sharded.Bank().Version; got != "v0001" {
		t.Fatalf("pipeline bank after rollback = %q", got)
	}

	// The journal replays the operator actions as typed events: each API
	// mutation plus the pipeline hot-swap it caused. (Pipeline-health events
	// from the live replay interleave freely, so filter by type.)
	promotes := journal.Events(0, obs.EventModelPromote, 0)
	if len(promotes) != 1 || promotes[0].Fields["version"] != "v0002" {
		t.Errorf("promote events = %+v, want one for v0002", promotes)
	}
	rollbacks := journal.Events(0, obs.EventModelRollback, 0)
	if len(rollbacks) != 1 || rollbacks[0].Fields["version"] != "v0001" {
		t.Errorf("rollback events = %+v, want one for v0001", rollbacks)
	}
	swaps := journal.Events(0, obs.EventModelSwap, 0)
	if len(swaps) != 2 || swaps[0].Fields["version"] != "v0002" || swaps[1].Fields["version"] != "v0001" {
		t.Errorf("swap events = %+v, want v0002 then v0001", swaps)
	}

	// Export captures the active bank as a loadable gob.
	resp, err := http.Get(base + "/models/export")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(blob) == 0 {
		t.Fatalf("export: %s, %d bytes", resp.Status, len(blob))
	}
	var exported pipeline.Bank
	if err := exported.UnmarshalBinary(blob); err != nil {
		t.Fatalf("exported bank does not load: %v", err)
	}
	if exported.Version != "v0001" {
		t.Errorf("exported version = %q, want v0001", exported.Version)
	}

	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("run: %v", err)
	}
}

// misfitBlob is bank's blob with every model's class names cut to one: a
// bank that decodes but cannot serve, which Bank.UnmarshalBinary refuses.
// The struct mirrors the bank's wire fields; gob matches them by name.
func misfitBlob(t *testing.T, bank *pipeline.Bank) []byte {
	t.Helper()
	blob, err := bank.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var dto struct {
		Format  uint32
		Version string
		Config  ml.ForestConfig
		Models  []struct {
			Provider, Transport, Objective uint8
			Encoder, Forest                []byte
			Classes                        []string
		}
	}
	if err := gob.NewDecoder(bytes.NewReader(blob)).Decode(&dto); err != nil {
		t.Fatal(err)
	}
	for i := range dto.Models {
		dto.Models[i].Classes = dto.Models[i].Classes[:1]
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(dto); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPromoteOfMisfitBankKeepsServing: an operator promote of a stored
// version whose bank file no longer fits its models is a client error, and
// the daemon keeps classifying with the bank it had.
func TestPromoteOfMisfitBankKeepsServing(t *testing.T) {
	if testing.Short() {
		t.Skip("bank training is slow")
	}
	leakcheck.Check(t)
	dir := t.TempDir()
	reg, err := registry.New(registry.Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	bank := trainBankSeed(t, 9)
	if _, err := reg.Add(bank, "initial", 9); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Promote("v0001"); err != nil {
		t.Fatal(err)
	}
	m, err := reg.Add(bank, "candidate", 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, m.ID+".bank"), misfitBlob(t, bank), 0o644); err != nil {
		t.Fatal(err)
	}

	srv, err := New(reg.Current().Bank, synth(3, 0), Config{
		Addr: "127.0.0.1:0", Shards: 2, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- srv.Run(ctx) }()
	base := "http://" + srv.Addr()
	classified := func() (uint64, string) {
		var st Stats
		getJSON(t, base+"/stats", &st)
		var n uint64
		for _, c := range st.ByProvider {
			n += c
		}
		return n, st.Models.ActiveVersion
	}

	if code, body := postJSON(t, base+"/models/promote?version="+m.ID, nil); code != http.StatusBadRequest {
		t.Fatalf("promote of a misfit bank: %d %s, want 400", code, body)
	}
	before, active := classified()
	if active != "v0001" {
		t.Fatalf("active_version after a refused promote = %q, want v0001", active)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if n, _ := classified(); n > before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no flow classified after the refused promote (%d before it)", before)
		}
	}

	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestModelsWithoutRegistry: the daemon still identifies and exports its
// ad-hoc bank; mutating endpoints refuse cleanly.
func TestModelsWithoutRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("bank training is slow")
	}
	leakcheck.Check(t)
	srv, err := New(trainBank(t), synth(3, 5), Config{Addr: "127.0.0.1:0", Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- srv.Run(ctx) }()
	base := "http://" + srv.Addr()

	var doc modelsDoc
	getJSON(t, base+"/models", &doc)
	if doc.Active != "unversioned" || len(doc.Versions) != 0 {
		t.Fatalf("models without registry = %+v", doc)
	}
	if code, _ := postJSON(t, base+"/models/promote?version=v0001", nil); code != http.StatusConflict {
		t.Errorf("promote without registry returned %d, want 409", code)
	}
	if code, _ := postJSON(t, base+"/models/rollback", nil); code != http.StatusConflict {
		t.Errorf("rollback without registry returned %d, want 409", code)
	}
	resp, err := http.Get(base + "/models/export")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var exported pipeline.Bank
	if err := exported.UnmarshalBinary(blob); err != nil {
		t.Fatalf("ad-hoc export does not load: %v", err)
	}

	cancel()
	if err := <-runErr; err != nil {
		t.Fatalf("run: %v", err)
	}
}

// TestAutoRetrainSwapsUnderInjectedDrift is the acceptance path: a daemon
// with -auto-retrain semantics, fed synthetic traffic whose profiles drift
// mid-replay, must detect the drift, shadow-evaluate a retrained bank on
// live flows, and hot-swap to it — with the version history visible in
// /models and per-window model attribution in the rollup.
//
// The source never runs dry and is paced, so traffic still flows when the
// swap lands and after it, however the scheduler treats the test: after each
// swap /stats shows only the new version's series, and only post-swap
// classifications start them.
func TestAutoRetrainSwapsUnderInjectedDrift(t *testing.T) {
	if testing.Short() {
		t.Skip("bank training is slow")
	}
	leakcheck.Check(t)
	reg, err := registry.New(registry.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	initial := trainBankSeed(t, 9)
	m0, err := reg.Add(initial, "initial", 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Promote(m0.ID); err != nil {
		t.Fatal(err)
	}

	// Prebuilt replacement covering drifted profiles, so the injected
	// TrainFunc is instant and the test exercises the loop, not training
	// wall-time.
	driftedDS, err := tracegen.New(31).OpenSetDataset(6)
	if err != nil {
		t.Fatal(err)
	}
	labDS, err := tracegen.New(32).LabDataset(0.02, fingerprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	driftedDS.Flows = append(driftedDS.Flows, labDS.Flows...)
	replacement, err := pipeline.TrainBank(driftedDS, pipeline.TrainConfig{Forest: ml.ForestConfig{
		NumTrees: 12, MaxDepth: 20, MaxFeatures: 34, Seed: 31}})
	if err != nil {
		t.Fatal(err)
	}

	journal := obs.NewJournal(256, nil)
	mon := drift.NewMonitor(drift.Config{Window: 30, ConfidenceDrop: 0.05})
	rt, err := registry.NewRetrainer(reg, registry.RetrainerConfig{
		Train:    func(string, uint64) (*pipeline.Bank, error) { return replacement, nil },
		Gate:     registry.Gate{SampleRate: 1, MinFlows: 25, MinAgreement: 0.05},
		Cooldown: time.Millisecond,
		Events:   journal,
	})
	if err != nil {
		t.Fatal(err)
	}

	srv, err := New(reg.Current().Bank, tracegen.NewStream(tracegen.StreamConfig{Seed: 7, DriftAfter: 100}), Config{
		Addr: "127.0.0.1:0", Shards: 2, Rate: 4000,
		Registry: reg, Drift: mon, Retrainer: rt, Journal: journal,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- srv.Run(ctx) }()
	// Registered after leakcheck.Check, so it runs first: a failing test
	// reports its cause, not the daemon's goroutines.
	stop := sync.OnceValue(func() error { cancel(); return <-runErr })
	t.Cleanup(func() { stop() })
	base := "http://" + srv.Addr()

	// Drift verdicts must surface in /stats while the monitor observes.
	driftSeen := false

	// The swap must land while traffic still flows.
	deadline := time.After(120 * time.Second)
	for srv.swaps.Load() == 0 {
		if !driftSeen {
			var st Stats
			getJSON(t, base+"/stats", &st)
			driftSeen = len(st.Drift) > 0
		}
		select {
		case <-deadline:
			t.Fatalf("no auto swap; retrainer=%+v drift=%+v models=%+v",
				rt.Status(), mon.Statuses(), reg.List())
		case <-time.After(20 * time.Millisecond):
		}
	}

	// The swap can land between two of the polls above, and after each
	// promotion /stats shows only the new version's series, so keep polling
	// while post-swap traffic starts them — drift verdicts must surface in
	// /stats at some point while the monitor observes.
	for !driftSeen {
		var st Stats
		getJSON(t, base+"/stats", &st)
		driftSeen = len(st.Drift) > 0
		if driftSeen {
			break
		}
		select {
		case <-deadline:
			t.Fatal("drift statuses never surfaced in /stats")
		case <-time.After(5 * time.Millisecond):
		}
	}

	// With a deliberately hair-trigger drift config the loop may fire more
	// than once (each equally good replacement re-flags on normal variance)
	// — what matters is that the daemon moved off v0001 via recorded,
	// gated promotions.
	var doc modelsDoc
	getJSON(t, base+"/models", &doc)
	if doc.Active == "v0001" || len(doc.History) < 2 || doc.History[0] != "v0001" {
		t.Fatalf("models after auto-promotion = %+v", doc)
	}
	for _, m := range doc.Versions {
		if m.ID == "v0001" {
			continue
		}
		if m.Reason == "" {
			t.Errorf("retrained version %s has no drift reason", m.ID)
		}
		if m.State == registry.StateActive && (m.Shadow == nil || !m.Shadow.Promoted) {
			t.Errorf("active version %s missing shadow metrics: %+v", m.ID, m)
		}
	}

	if err := stop(); err != nil {
		t.Fatalf("run: %v", err)
	}

	st := srv.Snapshot()
	if st.Replay.Error != "" {
		t.Errorf("replay error during swap: %s", st.Replay.Error)
	}
	if st.FlowVerdicts["classified"] == 0 {
		t.Error("no flows classified")
	}
	if st.Models.ActiveVersion == "v0001" || st.Models.ActiveVersion == "unversioned" || st.Models.Swaps == 0 {
		t.Errorf("final models stats = %+v", st.Models)
	}
	if st.Models.Retrainer == nil || st.Models.Retrainer.Promotions == 0 {
		t.Errorf("retrainer stats = %+v", st.Models.Retrainer)
	}
	if !driftSeen {
		t.Error("drift statuses never surfaced in /stats during the run")
	}

	// The journal must replay the whole autonomous loop as typed events —
	// drift trigger, candidate entering shadow, the verdict, and the swap —
	// in causal order (by first occurrence; a hair-trigger config may run
	// the loop more than once).
	evs := journal.Events(0, "", 0)
	firstAt := map[obs.EventType]int{}
	for i, ev := range evs {
		if _, ok := firstAt[ev.Type]; !ok {
			firstAt[ev.Type] = i
		}
	}
	chain := []obs.EventType{
		obs.EventDriftTrigger, obs.EventShadowStart,
		obs.EventShadowVerdict, obs.EventModelSwap,
	}
	for i, typ := range chain {
		at, ok := firstAt[typ]
		if !ok {
			t.Fatalf("journal missing %s: %+v", typ, evs)
		}
		if i > 0 && at < firstAt[chain[i-1]] {
			t.Errorf("%s (index %d) precedes %s (index %d)", typ, at, chain[i-1], firstAt[chain[i-1]])
		}
	}
	for _, ev := range evs {
		if ev.Type == obs.EventShadowVerdict && ev.Fields["promoted"] == "true" {
			return
		}
	}
	t.Errorf("no promoted shadow verdict in journal: %+v", evs)
}

// TestRejectedCandidateRetriedWhileDriftPersists: a classifier stays flagged
// and every candidate fails the shadow gate. The seal journals one
// drift_trigger per (classifier, bank version), however many seals find it
// flagged, and keeps triggering the retrainer, so a second candidate is
// trained once the cooldown after the first attempt has passed.
func TestRejectedCandidateRetriedWhileDriftPersists(t *testing.T) {
	if testing.Short() {
		t.Skip("bank training is slow")
	}
	leakcheck.Check(t)
	reg, err := registry.New(registry.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	m0, err := reg.Add(trainBankSeed(t, 9), "initial", 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Promote(m0.ID); err != nil {
		t.Fatal(err)
	}

	// Depth-1 forests: far less confident than the serving bank, so the
	// gate rejects every candidate. Each attempt gets its own copy, since
	// the registry stamps the version into the bank it stores.
	ds, err := tracegen.New(2).LabDataset(0.02, fingerprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	stumps, err := pipeline.TrainBank(ds, pipeline.TrainConfig{Forest: ml.ForestConfig{
		NumTrees: 12, MaxDepth: 1, MaxFeatures: 34, Seed: 2}})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := stumps.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	const cooldown = 200 * time.Millisecond
	var attemptsMu sync.Mutex
	var attempts []time.Time
	journal := obs.NewJournal(4096, nil)
	// A negative margin flags every classifier once its window fills and
	// keeps it flagged: the drift persists whatever the candidate.
	mon := drift.NewMonitor(drift.Config{Window: 20, ConfidenceDrop: -1})
	rt, err := registry.NewRetrainer(reg, registry.RetrainerConfig{
		Train: func(string, uint64) (*pipeline.Bank, error) {
			attemptsMu.Lock()
			attempts = append(attempts, time.Now())
			attemptsMu.Unlock()
			var b pipeline.Bank
			return &b, b.UnmarshalBinary(blob)
		},
		Gate:     registry.Gate{SampleRate: 1, MinFlows: 25},
		Cooldown: cooldown,
		Events:   journal,
	})
	if err != nil {
		t.Fatal(err)
	}

	srv, err := New(reg.Current().Bank, synth(7, 0), Config{
		Addr: "127.0.0.1:0", Shards: 2, Rate: 4000,
		Registry: reg, Drift: mon, Retrainer: rt, Journal: journal,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- srv.Run(ctx) }()
	stop := sync.OnceValue(func() error { cancel(); return <-runErr })
	t.Cleanup(func() { stop() })

	deadline := time.After(60 * time.Second)
	for len(journal.Events(0, obs.EventShadowStart, 0)) < 2 {
		select {
		case <-deadline:
			t.Fatalf("no second candidate; retrainer=%+v drift=%+v events=%+v",
				rt.Status(), mon.Statuses(), journal.Events(0, "", 0))
		case <-time.After(20 * time.Millisecond):
		}
	}

	// /stats names the classifiers and the version each verdict judges.
	var raw struct {
		Drift []map[string]any `json:"drift"`
	}
	getJSON(t, "http://"+srv.Addr()+"/stats", &raw)
	if len(raw.Drift) == 0 {
		t.Fatal("/stats has no drift entries")
	}
	for _, d := range raw.Drift {
		p, _ := d["provider"].(string)
		tr, _ := d["transport"].(string)
		if p == "" || (tr != "tcp" && tr != "quic") || d["version"] != "v0001" {
			t.Errorf("/stats drift entry = %v", d)
		}
	}

	if err := stop(); err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := reg.Current().Manifest.ID; got != "v0001" {
		t.Fatalf("a stump candidate was promoted: %s", got)
	}

	triggers := map[string]int{}
	for _, ev := range journal.Events(0, obs.EventDriftTrigger, 0) {
		if ev.Fields["version"] != "v0001" {
			t.Errorf("drift_trigger for version %q: %+v", ev.Fields["version"], ev)
		}
		triggers[ev.Fields["provider"]+"/"+ev.Fields["transport"]+"@"+ev.Fields["version"]]++
	}
	if len(triggers) == 0 {
		t.Fatal("no drift_trigger journaled")
	}
	for k, n := range triggers {
		if n != 1 {
			t.Errorf("%d drift_trigger events for %s, want 1", n, k)
		}
	}

	// The second candidate follows the first one's rejection, and its
	// training began no sooner than the cooldown after the first attempt.
	starts := journal.Events(0, obs.EventShadowStart, 0)
	var rejectedAt uint64
	for _, ev := range journal.Events(0, obs.EventShadowVerdict, 0) {
		if ev.Fields["version"] == starts[0].Fields["version"] {
			if ev.Fields["promoted"] != "false" {
				t.Fatalf("first candidate not rejected: %+v", ev)
			}
			rejectedAt = ev.Seq
		}
	}
	if rejectedAt == 0 || starts[1].Seq < rejectedAt {
		t.Errorf("second shadow_start (seq %d) does not follow the first rejection (seq %d)",
			starts[1].Seq, rejectedAt)
	}
	attemptsMu.Lock()
	defer attemptsMu.Unlock()
	if gap := attempts[1].Sub(attempts[0]); gap < cooldown {
		t.Errorf("second attempt %v after the first, inside the %v cooldown", gap, cooldown)
	}
}
