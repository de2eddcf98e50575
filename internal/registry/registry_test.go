package registry

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"videoplat/internal/features"
	"videoplat/internal/fingerprint"
	"videoplat/internal/ml"
	"videoplat/internal/pipeline"
	"videoplat/internal/tracegen"
)

// trainBank fits a small bank on a lab dataset drawn with seed.
func trainBank(t testing.TB, seed uint64, cfg ml.ForestConfig) *pipeline.Bank {
	t.Helper()
	ds, err := tracegen.New(seed).LabDataset(0.03, fingerprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.NumTrees == 0 {
		cfg = ml.ForestConfig{NumTrees: 12, MaxDepth: 20, MaxFeatures: 34, Seed: seed}
	}
	bank, err := pipeline.TrainBank(ds, pipeline.TrainConfig{Forest: cfg})
	if err != nil {
		t.Fatal(err)
	}
	return bank
}

// classifyAll runs every flow of ds through bank, returning the records and
// extracted features the serving pipeline would hand to OnClassify.
func classifyAll(t testing.TB, bank *pipeline.Bank, ds *tracegen.Dataset) ([]*pipeline.FlowRecord, []*features.HandshakeInfo) {
	t.Helper()
	var recs []*pipeline.FlowRecord
	var infos []*features.HandshakeInfo
	for _, ft := range ds.Flows {
		info, err := pipeline.ExtractTrace(ft)
		if err != nil {
			t.Fatal(err)
		}
		pred, err := bank.ClassifyHandshake(ft.Provider, ft.Transport, info, nil)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, &pipeline.FlowRecord{
			Verdict: pred.Verdict(), Provider: ft.Provider, Transport: ft.Transport,
			Prediction: pred, ModelVersion: bank.Version,
		})
		infos = append(infos, info)
	}
	return recs, infos
}

func TestPromoteRollbackRoundTripThroughDisk(t *testing.T) {
	if testing.Short() {
		t.Skip("trains banks")
	}
	dir := t.TempDir()
	reg, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if reg.Current() != nil {
		t.Fatal("fresh registry has an active version")
	}

	swaps := 0
	reg.OnSwap(func(*Version) { swaps++ })

	bankA := trainBank(t, 1, ml.ForestConfig{})
	mA, err := reg.Add(bankA, "initial", 1)
	if err != nil {
		t.Fatal(err)
	}
	if mA.ID != "v0001" || mA.State != StateCandidate {
		t.Fatalf("first manifest = %+v", mA)
	}
	if bankA.Version != "v0001" {
		t.Errorf("Add did not stamp bank version: %q", bankA.Version)
	}
	if _, err := reg.Promote("v0001"); err != nil {
		t.Fatal(err)
	}

	bankB := trainBank(t, 2, ml.ForestConfig{})
	if _, err := reg.Add(bankB, "drift: test", 2); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Promote("v0002"); err != nil {
		t.Fatal(err)
	}
	if swaps != 2 {
		t.Errorf("swap callbacks = %d, want 2", swaps)
	}
	if cur := reg.Current(); cur.Manifest.ID != "v0002" || cur.Bank.Version != "v0002" {
		t.Fatalf("current = %+v", reg.Current().Manifest)
	}

	// A new process opens the same directory: full state round-trips.
	reg2, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	cur := reg2.Current()
	if cur == nil || cur.Manifest.ID != "v0002" {
		t.Fatalf("reopened active = %+v", cur)
	}
	// The reloaded bank must actually classify.
	ds, err := tracegen.New(3).LabDataset(0.01, fingerprint.Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs, _ := classifyAll(t, cur.Bank, ds)
	if len(recs) == 0 {
		t.Fatal("reloaded bank classified nothing")
	}
	list := reg2.List()
	if len(list) != 2 {
		t.Fatalf("list = %+v", list)
	}
	if list[0].State != StateRetired || list[1].State != StateActive {
		t.Errorf("states = %s/%s, want retired/active", list[0].State, list[1].State)
	}

	// Rollback returns to the previous distinct version and survives reopen.
	v, err := reg2.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if v.Manifest.ID != "v0001" {
		t.Fatalf("rollback landed on %s", v.Manifest.ID)
	}
	reg3, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if cur := reg3.Current(); cur.Manifest.ID != "v0001" {
		t.Fatalf("reopened after rollback = %+v", cur.Manifest)
	}
	hist := reg3.History()
	if len(hist) != 3 || hist[2] != "v0001" {
		t.Fatalf("history = %v", hist)
	}
}

func TestRollbackWithoutPredecessorFails(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a bank")
	}
	reg, err := New(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Rollback(); err == nil {
		t.Fatal("rollback on empty registry succeeded")
	}
	bank := trainBank(t, 1, ml.ForestConfig{})
	if _, err := reg.Add(bank, "initial", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Promote("v0001"); err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Rollback(); err == nil {
		t.Fatal("rollback with a single version succeeded")
	}
}

// TestRetentionBoundsLongRunningRegistry is the daemon that never restarts:
// forty retrain cycles through a registry nobody configured leave the active
// version and keepVersions retired ones — on disk, in List and in HISTORY —
// and Rollback still has its target.
func TestRetentionBoundsLongRunningRegistry(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a bank")
	}
	dir := t.TempDir()
	reg, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	bank := trainBank(t, 1, ml.ForestConfig{NumTrees: 3, MaxDepth: 5, MaxFeatures: 10, Seed: 1})
	const cycles = 40
	for i := 0; i < cycles; i++ {
		m, err := reg.Add(bank, "cycle", 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := reg.Promote(m.ID); err != nil {
			t.Fatal(err)
		}
	}
	banks, _ := filepath.Glob(filepath.Join(dir, "*.bank"))
	manifests, _ := filepath.Glob(filepath.Join(dir, "*.json"))
	if len(banks) > keepVersions+1 || len(manifests) != len(banks) || len(reg.List()) != len(banks) {
		t.Errorf("after %d cycles: %d banks, %d manifests on disk, %d listed; want at most %d of each",
			cycles, len(banks), len(manifests), len(reg.List()), keepVersions+1)
	}
	blob, err := os.ReadFile(filepath.Join(dir, "HISTORY"))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range strings.Fields(string(blob)) {
		if _, err := os.Stat(filepath.Join(dir, id+".bank")); err != nil {
			t.Errorf("HISTORY names %s, whose bank is gone: %v", id, err)
		}
	}
	v, err := reg.Rollback()
	if err != nil {
		t.Fatalf("rollback after %d cycles: %v", cycles, err)
	}
	if want := fmt.Sprintf("v%04d", cycles-1); v.Manifest.ID != want {
		t.Errorf("rollback landed on %s, want %s", v.Manifest.ID, want)
	}
}

// TestRejectedRunKeepsRollbackTarget is persistent drift: more candidates
// than keepVersions fail the gate before one passes, every one of them newer
// than the version they failed to replace. That version must outlive the
// pruning its own retirement triggers, because the promotion that retired it
// is the one an operator may need to undo.
func TestRejectedRunKeepsRollbackTarget(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a bank")
	}
	dir := t.TempDir()
	reg, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	bank := trainBank(t, 1, ml.ForestConfig{NumTrees: 3, MaxDepth: 5, MaxFeatures: 10, Seed: 1})
	first, err := reg.Add(bank, "initial", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Promote(first.ID); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < keepVersions+1; i++ {
		m, err := reg.Add(bank, "drift", 1)
		if err != nil {
			t.Fatal(err)
		}
		if err := reg.SetShadowMetrics(m.ID, ShadowMetrics{}, false); err != nil {
			t.Fatal(err)
		}
	}
	passed, err := reg.Add(bank, "drift", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reg.Promote(passed.ID); err != nil {
		t.Fatal(err)
	}
	if n := len(reg.List()); n > keepVersions+1 {
		t.Errorf("%d versions stored, want at most %d", n, keepVersions+1)
	}
	v, err := reg.Rollback()
	if err != nil {
		t.Fatalf("rollback after %d rejected candidates: %v", keepVersions+1, err)
	}
	if v.Manifest.ID != first.ID {
		t.Errorf("rollback landed on %s, want %s", v.Manifest.ID, first.ID)
	}
}

// TestVersionOrderIsOrdinalThenID pins the one ordering List and pruning
// share: v10000 is newer than v9999 though it sorts before it as a string,
// and foreign ids (ordinal 0) are oldest, ordered among themselves by id.
func TestVersionOrderIsOrdinalThenID(t *testing.T) {
	reg, err := New(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	ids := []string{"imported-b", "imported-a", "v9999", "v10000", "v10001"}
	for _, id := range ids {
		reg.manifests[id] = &Manifest{ID: id, State: StateRetired}
	}
	var got []string
	for _, m := range reg.List() {
		got = append(got, m.ID)
	}
	if want := "imported-a imported-b v9999 v10000 v10001"; strings.Join(got, " ") != want {
		t.Errorf("List order = %v, want %s", got, want)
	}
	for _, c := range []struct {
		keep   int
		oldest string
	}{{4, "imported-b"}, {2, "v10000"}} {
		reg.keep = c.keep
		reg.pruneLocked()
		if l := reg.List(); len(l) != c.keep || l[0].ID != c.oldest {
			t.Errorf("keep=%d: survivors = %v, want %d starting at %s", c.keep, l, c.keep, c.oldest)
		}
	}
}

func TestKeepPrunesOldRetiredVersions(t *testing.T) {
	if testing.Short() {
		t.Skip("trains banks")
	}
	dir := t.TempDir()
	reg, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	reg.keep = 1
	for seed := uint64(1); seed <= 3; seed++ {
		bank := trainBank(t, seed, ml.ForestConfig{NumTrees: 3, MaxDepth: 5, MaxFeatures: 10, Seed: seed})
		m, err := reg.Add(bank, "cycle", seed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := reg.Promote(m.ID); err != nil {
			t.Fatal(err)
		}
	}
	// v0003 active, v0002 retired (kept), v0001 pruned.
	bank := trainBank(t, 4, ml.ForestConfig{NumTrees: 3, MaxDepth: 5, MaxFeatures: 10, Seed: 4})
	if _, err := reg.Add(bank, "cycle", 4); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "v0001.bank")); !os.IsNotExist(err) {
		t.Errorf("v0001 bank not pruned (err=%v)", err)
	}
	if cur := reg.Current(); cur.Manifest.ID != "v0003" {
		t.Errorf("pruning touched the active version: %+v", cur.Manifest)
	}
	// Pruned versions must also leave the promotion history, so rollback
	// resolves to the surviving predecessor, never a deleted version.
	v, err := reg.Rollback()
	if err != nil {
		t.Fatalf("rollback after prune: %v", err)
	}
	if v.Manifest.ID != "v0002" {
		t.Errorf("rollback after prune landed on %s, want v0002", v.Manifest.ID)
	}
}
