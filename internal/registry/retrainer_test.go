package registry

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"videoplat/internal/drift"
	"videoplat/internal/fingerprint"
	"videoplat/internal/leakcheck"
	"videoplat/internal/ml"
	"videoplat/internal/pipeline"
	"videoplat/internal/tracegen"
)

// TestRetrainerClosesTheDriftLoop drives the full §5.3 lifecycle without a
// server: in-distribution traffic establishes the drift baseline, open-set
// (platform-update) traffic degrades confidence, the monitor's verdict
// triggers a retrain, the candidate is shadow-evaluated on the same drifted
// stream, and promotion hot-swaps the active version in the registry.
func TestRetrainerClosesTheDriftLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("trains banks")
	}
	leakcheck.Check(t)
	reg, err := New(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	initial := trainBank(t, 1, ml.ForestConfig{})
	m0, err := reg.Add(initial, "initial", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Promote(m0.ID); err != nil {
		t.Fatal(err)
	}

	// The "fresh ground truth from the updated fleet": a bank trained on
	// open-set (drifted) profiles, returned by the injected TrainFunc.
	driftedDS, err := tracegen.New(31).OpenSetDataset(6)
	if err != nil {
		t.Fatal(err)
	}
	replacement, err := pipeline.TrainBank(driftedDS, pipeline.TrainConfig{Forest: ml.ForestConfig{
		NumTrees: 12, MaxDepth: 20, MaxFeatures: 34, Seed: 31}})
	if err != nil {
		t.Fatal(err)
	}

	mon := drift.NewMonitor(drift.Config{Window: 40, ConfidenceDrop: 0.05})
	trained := make(chan string, 1)
	rt, err := NewRetrainer(reg, RetrainerConfig{
		Train: func(reason string, seed uint64) (*pipeline.Bank, error) {
			select {
			case trained <- reason:
			default:
			}
			return replacement, nil
		},
		Gate:     Gate{SampleRate: 1, MinFlows: 30, MinAgreement: 0.05},
		Cooldown: time.Millisecond,
		Seed:     99,
	})
	if err != nil {
		t.Fatal(err)
	}
	stop := runRetrainer(t, rt)

	closed, err := tracegen.New(22).LabDataset(0.03, fingerprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	open, err := tracegen.New(23).OpenSetDataset(6)
	if err != nil {
		t.Fatal(err)
	}

	// feed classifies every flow against whatever bank is currently active
	// — exactly what the serving pipeline does — and wires the monitor and
	// shadow hooks the way internal/server does, judging drift after each
	// batch as the server does at each sealed window.
	feed := func(ds *tracegen.Dataset) {
		cur := reg.Current()
		recs, vals := classifyAll(t, cur.Bank, ds)
		for i := range recs {
			mon.Observe(recs[i])
			rt.ObserveClassified(recs[i], vals[i])
		}
		judgeDrift(rt, mon)
	}

	// Phase 1: baseline on in-distribution traffic.
	for i := 0; i < 3; i++ {
		feed(closed)
	}
	if got := reg.Current().Manifest.ID; got != "v0001" {
		t.Fatalf("premature swap to %s", got)
	}

	// Phase 2: the fleet updates. Keep streaming drifted traffic until the
	// loop completes: flag → retrain → shadow → promote.
	deadline := time.After(60 * time.Second)
	for reg.Current().Manifest.ID == "v0001" {
		select {
		case <-deadline:
			t.Fatalf("no promotion; retrainer=%+v drift=%+v registry=%+v",
				rt.Status(), mon.Statuses(), reg.List())
		default:
		}
		feed(open)
	}
	// One full cycle is what this test pins down; stop the loop so the
	// hair-trigger config (1ms cooldown, tiny windows) cannot start a
	// second one while we assert.
	stop()

	cur := reg.Current()
	if cur.Manifest.ID == "v0001" || cur.Bank.Version != cur.Manifest.ID {
		t.Fatalf("active after loop = %+v", cur.Manifest)
	}
	select {
	case reason := <-trained:
		if reason == "" {
			t.Error("retrain reason empty")
		}
	default:
		t.Error("TrainFunc never invoked")
	}

	// The promotion must be recorded on disk with its shadow metrics.
	activeID := cur.Manifest.ID
	waitFor(t, 5*time.Second, func() bool {
		for _, m := range reg.List() {
			if m.ID == activeID && m.State == StateActive && m.Shadow != nil && m.Shadow.Promoted {
				return true
			}
		}
		return false
	})

	// And the new bank's series started afresh: on drifted traffic it is
	// healthy against its own reference. Feed the monitor only — the
	// retrainer is stopped, and a live shadow must not resolve mid-assert.
	for i := 0; i < 3; i++ {
		recs, _ := classifyAll(t, reg.Current().Bank, open)
		for _, rec := range recs {
			mon.Observe(rec)
		}
	}
	for _, st := range mon.Statuses() {
		if st.Version == activeID && st.Drifting { // the replaced bank's series is kept beside it
			t.Errorf("post-swap classifier judged against old baseline: %+v", st)
		}
	}
	if st := rt.Status(); st.Promotions < 1 || st.LastError != "" {
		t.Errorf("retrainer status = %+v", st)
	}
}

// TestRetrainerRetriesAfterRejection: a candidate that fails the gate is
// recorded as rejected, and while the drift persists the next Trigger after
// the cooldown trains another candidate.
func TestRetrainerRetriesAfterRejection(t *testing.T) {
	if testing.Short() {
		t.Skip("trains banks")
	}
	leakcheck.Check(t)
	reg, err := New(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	initial := trainBank(t, 1, ml.ForestConfig{})
	m0, err := reg.Add(initial, "initial", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Promote(m0.ID); err != nil {
		t.Fatal(err)
	}
	bad := trainBank(t, 2, ml.ForestConfig{NumTrees: 12, MaxDepth: 1, MaxFeatures: 34, Seed: 2})

	mon := drift.NewMonitor(drift.Config{Window: 40, ConfidenceDrop: 0.05})
	rt, err := NewRetrainer(reg, RetrainerConfig{
		Train:    func(string, uint64) (*pipeline.Bank, error) { return bad, nil },
		Gate:     Gate{SampleRate: 1, MinFlows: 30},
		Cooldown: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	runRetrainer(t, rt)

	closed, err := tracegen.New(22).LabDataset(0.03, fingerprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	open, err := tracegen.New(23).OpenSetDataset(6)
	if err != nil {
		t.Fatal(err)
	}
	feed := func(ds *tracegen.Dataset) {
		recs, vals := classifyAll(t, reg.Current().Bank, ds)
		for i := range recs {
			mon.Observe(recs[i])
			rt.ObserveClassified(recs[i], vals[i])
		}
		judgeDrift(rt, mon)
	}
	for i := 0; i < 3; i++ {
		feed(closed)
	}
	deadline := time.After(60 * time.Second)
	for st := rt.Status(); st.Rejections == 0 || st.Retrains < 2; st = rt.Status() {
		select {
		case <-deadline:
			t.Fatalf("no retry after a rejection; retrainer=%+v registry=%+v", rt.Status(), reg.List())
		default:
		}
		feed(open)
	}
	if got := reg.Current().Manifest.ID; got != "v0001" {
		t.Fatalf("bad candidate was promoted: %s", got)
	}
	waitFor(t, 5*time.Second, func() bool {
		for _, m := range reg.List() {
			if m.State == StateRejected && m.Shadow != nil && !m.Shadow.Promoted {
				return true
			}
		}
		return false
	})
}

// TestTriggerForReplacedVersionIsDropped: a retrain request names the
// version whose drift verdict raised it, and Start drops it once that version
// no longer serves. Start takes requests in order, so once the stale one has
// left the channel the next one Train sees is the current version's.
func TestTriggerForReplacedVersionIsDropped(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a bank")
	}
	leakcheck.Check(t)
	reg, err := New(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	bank := trainBank(t, 1, ml.ForestConfig{NumTrees: 3, MaxDepth: 5, MaxFeatures: 10, Seed: 1})
	for _, id := range []string{"v0001", "v0002"} {
		if _, err := reg.Add(bank, "cycle", 1); err != nil {
			t.Fatal(err)
		}
		if _, err := reg.Promote(id); err != nil {
			t.Fatal(err)
		}
	}
	reasons := make(chan string, 2)
	rt, err := NewRetrainer(reg, RetrainerConfig{
		Train: func(reason string, _ uint64) (*pipeline.Bank, error) {
			reasons <- reason
			return nil, fmt.Errorf("not training in this test")
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	runRetrainer(t, rt)

	rt.Trigger("v0001", "stale")
	waitFor(t, 5*time.Second, func() bool { return len(rt.trigger) == 0 })
	rt.Trigger("v0002", "current")
	select {
	case reason := <-reasons:
		if reason != "current" {
			t.Errorf("Train got %q first, want the serving version's request %q", reason, "current")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the serving version's request never trained")
	}
}

// TestShadowCountsNeverDip races shard goroutines calling
// ObserveClassified against Start resolving one shadow evaluation after
// another. The totals ShadowCounts reports never decrease, and once the
// shards stop they equal the sum of every shadow's Counts, including the
// samples a shard added after Start had resolved that shadow.
func TestShadowCountsNeverDip(t *testing.T) {
	if testing.Short() {
		t.Skip("trains banks")
	}
	leakcheck.Check(t)
	reg, err := New(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	active := trainBank(t, 1, ml.ForestConfig{NumTrees: 3, MaxDepth: 5, MaxFeatures: 10, Seed: 1})
	cand := trainBank(t, 2, ml.ForestConfig{NumTrees: 3, MaxDepth: 5, MaxFeatures: 10, Seed: 2})
	if _, err := reg.Add(active, "initial", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Promote("v0001"); err != nil {
		t.Fatal(err)
	}
	gate := Gate{SampleRate: 1, MinFlows: 20}
	rt, err := NewRetrainer(reg, RetrainerConfig{Gate: gate,
		Train: func(string, uint64) (*pipeline.Bank, error) { return nil, fmt.Errorf("not training in this test") }})
	if err != nil {
		t.Fatal(err)
	}
	stop := runRetrainer(t, rt)
	live, err := tracegen.New(5).LabDataset(0.03, fingerprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs, vals := classifyAll(t, active, live)

	var done, dipped atomic.Bool
	var wg sync.WaitGroup
	for s := range 2 { // two shards
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := s; !done.Load(); i++ {
				rt.ObserveClassified(recs[i%len(recs)], vals[i%len(vals)])
			}
		}()
	}
	wg.Add(1)
	go func() { // the seal stage
		defer wg.Done()
		var lastA, lastD uint64
		for !done.Load() {
			a, d := rt.ShadowCounts()
			dipped.CompareAndSwap(false, a < lastA || d < lastD)
			lastA, lastD = a, d
		}
	}()
	var shadows []*Shadow
	for range 20 {
		man, err := reg.Add(cand, "race", 2)
		if err != nil {
			t.Fatal(err)
		}
		shadows = append(shadows, NewShadow(cand, gate))
		rt.shadow.Store(&shadowEval{sh: shadows[len(shadows)-1], id: man.ID})
		waitFor(t, 10*time.Second, func() bool { return rt.shadow.Load() == nil })
	}
	done.Store(true)
	wg.Wait()
	stop()

	if dipped.Load() {
		t.Error("ShadowCounts decreased")
	}
	var wantA, wantD uint64
	for _, sh := range shadows {
		a, d := sh.Counts()
		wantA, wantD = wantA+a, wantD+d
	}
	if a, d := rt.ShadowCounts(); a != wantA || d != wantD || a == 0 || d == 0 {
		t.Errorf("ShadowCounts = (%d, %d), want the shadows' sum (%d, %d), both above 0", a, d, wantA, wantD)
	}
}

// judgeDrift does what the server does at each sealed window: Trigger the
// retrainer for every classifier the monitor flags.
func judgeDrift(rt *Retrainer, mon *drift.Monitor) {
	for _, st := range mon.Statuses() {
		if st.Drifting {
			rt.Trigger(st.Version, fmt.Sprintf("drift: %s/%s %s", st.Provider, st.Transport, st.Reason))
		}
	}
}

// runRetrainer runs rt's loop and returns a stop function that cancels it
// and waits for Start to return, after which the retrainer writes nothing
// more into the registry directory. stop also runs at test cleanup — before
// t.TempDir removes the directory, since cleanups run last-registered first.
func runRetrainer(t *testing.T, rt *Retrainer) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		rt.Start(ctx)
	}()
	stop = func() {
		cancel()
		<-done
	}
	t.Cleanup(stop)
	return stop
}

func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
