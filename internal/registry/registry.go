// Package registry is the model lifecycle subsystem the paper's
// continuous-deployment story (§4.3.3, §5.3) implies: detect drift →
// retrain → redeploy, under live traffic. It closes the loop that
// internal/drift only opens.
//
// A Registry is a disk-backed, versioned store of serialized classifier
// banks. Every stored bank gets a manifest (version id, training config,
// seed, creation time, evaluation metrics), the HISTORY file is the one
// record of which version serves, and the active version sits behind an
// atomic pointer, so the serving path reads Current() lock-free and a
// Promote or Rollback is a zero-downtime hot-swap: classification in flight
// completes against the bank it loaded, the next flow sees the new one.
//
// A Shadow evaluates a candidate bank against the active one on a sampled
// stream of live flows, and a Retrainer ties the pieces together: on
// Trigger, a replacement bank is trained off the hot path,
// shadow-evaluated, and promoted only when it clears the gate. The package
// does not read drift verdicts itself; the daemon judges drift once per
// sealed telemetry window and calls Trigger while a classifier is flagged.
package registry

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"videoplat/internal/ml"
	"videoplat/internal/pipeline"
)

// Manifest states, derived from HISTORY and never stored: the last HISTORY
// entry is active, a version named earlier in it is retired, one that failed
// its shadow evaluation and never served is rejected (kept on disk for
// post-mortem, never auto-promoted again), and any other is a candidate.
const (
	StateCandidate = "candidate"
	StateActive    = "active"
	StateRetired   = "retired"
	StateRejected  = "rejected"
)

// Manifest describes one stored bank version.
type Manifest struct {
	ID        string          `json:"id"`
	CreatedAt time.Time       `json:"created_at"`
	Seed      uint64          `json:"seed"`
	Forest    ml.ForestConfig `json:"forest"`
	// Reason records why the version exists ("initial", "operator import",
	// "drift: youtube/QUIC median confidence dropped ...").
	Reason string `json:"reason"`
	// State is filled in by List, Add and Current from HISTORY; a manifest
	// on disk carries none.
	State string `json:"state,omitempty"`
	// Shadow holds the shadow-evaluation metrics that admitted (or
	// rejected) the version, when it went through the gate.
	Shadow *ShadowMetrics `json:"shadow,omitempty"`
}

// Version pairs a loaded bank with its manifest — what Current() serves.
type Version struct {
	Manifest Manifest
	Bank     *pipeline.Bank
}

// Config tunes a Registry.
type Config struct {
	// Dir is the on-disk store. Created if missing.
	Dir string
}

// keepVersions is how many retired or rejected versions a registry retains
// beside the active one and any candidates; the oldest beyond it are
// pruned. Retention is behaviour, not an option: an auto-retraining daemon
// adds a version (~100 KB at the vpserve defaults) per attempt, up to one
// per cooldown while drift persists, for as long as it lives. Sixteen is a
// post-mortem's worth of history; Rollback's target is always among them
// (see pruneLocked).
const keepVersions = 16

// Registry is a versioned bank store with an atomically swappable active
// version. Safe for concurrent use; Current is lock-free.
type Registry struct {
	cfg  Config
	keep int // keepVersions; a field so an in-package test can shrink it
	cur  atomic.Pointer[Version]

	// swapMu serializes whole activations (HISTORY write + OnSwap fan-out):
	// without it two concurrent Promotes could run their subscriber
	// callbacks out of order, leaving serving pipelines on a bank that is
	// not the registry's active version. Held around mu, never inside it.
	swapMu sync.Mutex

	mu        sync.Mutex
	manifests map[string]*Manifest
	history   []string // promotion order, last entry = active; HISTORY on disk
	onSwap    []func(*Version)
}

// New opens (or initializes) a registry at cfg.Dir, loading manifests and
// the active bank recorded by a previous run: the last HISTORY entry. New
// writes no file; a state stored by an older build's manifest is ignored.
func New(cfg Config) (*Registry, error) {
	if cfg.Dir == "" {
		return nil, fmt.Errorf("registry: Config.Dir is required")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("registry: creating %s: %w", cfg.Dir, err)
	}
	r := &Registry{cfg: cfg, keep: keepVersions, manifests: map[string]*Manifest{}}

	ents, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("registry: reading %s: %w", cfg.Dir, err)
	}
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".json") {
			continue
		}
		blob, err := os.ReadFile(filepath.Join(cfg.Dir, e.Name()))
		if err != nil {
			return nil, fmt.Errorf("registry: reading manifest %s: %w", e.Name(), err)
		}
		var m Manifest
		if err := json.Unmarshal(blob, &m); err != nil {
			return nil, fmt.Errorf("registry: manifest %s: %w", e.Name(), err)
		}
		m.State = "" // an older build's; never written back
		r.manifests[m.ID] = &m
	}

	if err := r.loadHistory(); err != nil {
		return nil, err
	}
	if active := r.activeIDLocked(); active != "" {
		bank, err := r.loadBank(active)
		if err != nil {
			return nil, fmt.Errorf("registry: loading active version %s: %w", active, err)
		}
		r.cur.Store(&Version{Manifest: r.viewLocked(r.manifests[active]), Bank: bank})
	}
	return r, nil
}

// Current returns the active version, or nil if none has been promoted.
// Lock-free: safe to call per packet.
func (r *Registry) Current() *Version { return r.cur.Load() }

// OnSwap registers fn to run after every activation (Promote or Rollback)
// with the newly active version — how a serving pipeline hot-swaps its bank.
// Callbacks run synchronously from the promoting goroutine, in registration
// order.
func (r *Registry) OnSwap(fn func(*Version)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.onSwap = append(r.onSwap, fn)
}

// Add stores a bank as a new candidate version and returns its manifest.
// The bank's Version field is stamped with the assigned id, so serialized
// copies and every flow it later classifies carry the identity. Because of
// that write, do not Add a bank that is concurrently serving
// classifications — register first, then serve (a serving pipeline reads
// Version per flow). Add does not activate the version; see Promote.
func (r *Registry) Add(bank *pipeline.Bank, reason string, seed uint64) (Manifest, error) {
	r.mu.Lock()
	defer r.mu.Unlock()

	id := fmt.Sprintf("v%04d", r.nextOrdinalLocked())
	bank.Version = id
	blob, err := bank.MarshalBinary()
	if err != nil {
		return Manifest{}, fmt.Errorf("registry: serializing %s: %w", id, err)
	}
	m := &Manifest{
		ID:        id,
		CreatedAt: time.Now().UTC(),
		Seed:      seed,
		Forest:    bank.Config,
		Reason:    reason,
	}
	if err := writeFileAtomic(r.bankPath(id), blob); err != nil {
		return Manifest{}, err
	}
	if err := r.writeManifestLocked(m); err != nil {
		return Manifest{}, err
	}
	r.manifests[id] = m
	r.pruneLocked()
	return r.viewLocked(m), nil
}

// Promote activates a stored version: the bank is loaded from disk, the
// version is appended to HISTORY (one atomic file replace, the activation's
// only write), the active pointer swaps, and OnSwap subscribers run. If the
// HISTORY write fails nothing changes: no swap, no subscriber call. The
// swap itself is a single atomic store — readers never block — and
// activations (including their subscriber fan-out) are serialized, so
// subscribers always observe promotions in activation order.
func (r *Registry) Promote(id string) (*Version, error) {
	r.swapMu.Lock()
	defer r.swapMu.Unlock()
	r.mu.Lock()
	m, ok := r.manifests[id]
	if !ok {
		r.mu.Unlock()
		return nil, fmt.Errorf("registry: unknown version %q", id)
	}
	cur := r.cur.Load()
	if cur != nil && cur.Manifest.ID == id {
		r.mu.Unlock()
		return cur, nil // already active
	}
	bank, err := r.loadBank(id)
	if err != nil {
		r.mu.Unlock()
		return nil, err
	}
	v, err := r.activateLocked(m, bank)
	subs := append([]func(*Version){}, r.onSwap...)
	r.mu.Unlock()
	if err != nil {
		return nil, err
	}
	for _, fn := range subs {
		fn(v)
	}
	return v, nil
}

// Rollback re-activates the version that was active before the current one
// — the operator's escape hatch when a promotion turns out bad in
// production. It walks promotion history past consecutive duplicates, so
// repeated rollbacks alternate no further back than the previous distinct
// version.
func (r *Registry) Rollback() (*Version, error) {
	r.mu.Lock()
	prev := r.rollbackTargetLocked()
	r.mu.Unlock()
	if prev == "" {
		return nil, fmt.Errorf("registry: no previous version to roll back to")
	}
	return r.Promote(prev)
}

// List returns every stored manifest with its derived state, oldest version
// first.
func (r *Registry) List() []Manifest {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Manifest, 0, len(r.manifests))
	for _, m := range r.manifests {
		out = append(out, r.viewLocked(m))
	}
	sort.Slice(out, func(i, j int) bool { return older(out[i].ID, out[j].ID) })
	return out
}

// History returns the promotion order, oldest first; the last entry is the
// active version.
func (r *Registry) History() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string{}, r.history...)
}

// SetShadowMetrics records a candidate's shadow-evaluation outcome in its
// manifest; one not promoted is rejected until it serves.
func (r *Registry) SetShadowMetrics(id string, metrics ShadowMetrics, promoted bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.manifests[id]
	if !ok {
		return fmt.Errorf("registry: unknown version %q", id)
	}
	metrics.Promoted = promoted
	m.Shadow = &metrics
	return r.writeManifestLocked(m)
}

// activateLocked persists the promotion of (m, bank) to HISTORY, swaps the
// active pointer and returns the new Version. A failed write leaves the
// history as it was. Callers hold mu.
func (r *Registry) activateLocked(m *Manifest, bank *pipeline.Bank) (*Version, error) {
	r.history = append(r.history, m.ID)
	if err := r.writeHistoryLocked(); err != nil {
		r.history = r.history[:len(r.history)-1]
		return nil, err
	}
	v := &Version{Manifest: r.viewLocked(m), Bank: bank}
	r.cur.Store(v)
	r.pruneLocked() // the version just retired may be one too many
	return v, nil
}

func (r *Registry) bankPath(id string) string {
	return filepath.Join(r.cfg.Dir, id+".bank")
}

func (r *Registry) manifestPath(id string) string {
	return filepath.Join(r.cfg.Dir, id+".json")
}

func (r *Registry) loadBank(id string) (*pipeline.Bank, error) {
	blob, err := os.ReadFile(r.bankPath(id))
	if err != nil {
		return nil, fmt.Errorf("registry: reading bank %s: %w", id, err)
	}
	bank := &pipeline.Bank{}
	if err := bank.UnmarshalBinary(blob); err != nil {
		return nil, fmt.Errorf("registry: bank %s: %w", id, err)
	}
	bank.Version = id // trust the store over the blob (operator imports)
	return bank, nil
}

func (r *Registry) writeManifestLocked(m *Manifest) error {
	blob, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("registry: encoding manifest %s: %w", m.ID, err)
	}
	return writeFileAtomic(r.manifestPath(m.ID), append(blob, '\n'))
}

// historyPath holds the promotion log, one version id per line; the last
// line names the active version across restarts.
func (r *Registry) historyPath() string { return filepath.Join(r.cfg.Dir, "HISTORY") }

func (r *Registry) loadHistory() error {
	blob, err := os.ReadFile(r.historyPath())
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("registry: reading history: %w", err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(blob)), "\n") {
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		if _, ok := r.manifests[line]; !ok {
			continue // pruned version; keep history consistent with the store
		}
		r.history = append(r.history, line)
	}
	return nil
}

func (r *Registry) writeHistoryLocked() error {
	return writeFileAtomic(r.historyPath(), []byte(strings.Join(r.history, "\n")+"\n"))
}

// viewLocked is m as List, Add and Current report it: with its state
// derived from HISTORY and its shadow verdict.
func (r *Registry) viewLocked(m *Manifest) Manifest {
	v := *m
	switch {
	case m.ID == r.activeIDLocked():
		v.State = StateActive
	case slices.Contains(r.history, m.ID):
		v.State = StateRetired
	case m.Shadow != nil && !m.Shadow.Promoted:
		v.State = StateRejected
	default:
		v.State = StateCandidate
	}
	return v
}

func (r *Registry) activeIDLocked() string {
	if len(r.history) == 0 {
		return ""
	}
	return r.history[len(r.history)-1]
}

// rollbackTargetLocked is the version Rollback would re-activate: the last
// history entry that differs from the active one, "" if there is none.
func (r *Registry) rollbackTargetLocked() string {
	cur := r.activeIDLocked()
	for i := len(r.history) - 2; i >= 0; i-- {
		if r.history[i] != cur {
			return r.history[i]
		}
	}
	return ""
}

// ordinal is the number in a version id ("v0017" → 17; 0 for a foreign id).
func ordinal(id string) int {
	var n int
	fmt.Sscanf(id, "v%d", &n) // a failed scan leaves 0
	return n
}

// older is the registry's one version ordering, used by List and by
// pruning: by ordinal, because ids outgrow their %04d padding at v10000 (a
// week of once-a-minute retrains) and "v10000" sorts before "v9999" as a
// string; ties — foreign ids an operator imported, all ordinal 0 — by id.
func older(a, b string) bool {
	if oa, ob := ordinal(a), ordinal(b); oa != ob {
		return oa < ob
	}
	return a < b
}

// nextOrdinalLocked returns one past the highest stored version ordinal.
func (r *Registry) nextOrdinalLocked() int {
	max := 0
	for id := range r.manifests {
		if n := ordinal(id); n > max {
			max = n
		}
	}
	return max + 1
}

// pruneLocked removes the oldest retired and rejected versions beyond
// r.keep. The active version and candidates are never pruned.
// Nor is Rollback's target, which takes one of the keep slots wherever it
// ranks: a run of rejected candidates all outrank the version they failed
// to replace, and must not push it out before the one that finally passes
// the gate can be rolled back.
func (r *Registry) pruneLocked() {
	rollback := r.rollbackTargetLocked()
	keep := r.keep
	var prunable []string
	for id, m := range r.manifests {
		switch state := r.viewLocked(m).State; {
		case state == StateActive || state == StateCandidate:
		case id == rollback:
			keep--
		default:
			prunable = append(prunable, id)
		}
	}
	sort.Slice(prunable, func(i, j int) bool { return older(prunable[i], prunable[j]) })
	removed := map[string]bool{}
	for len(prunable) > max(keep, 0) {
		id := prunable[0]
		prunable = prunable[1:]
		os.Remove(r.bankPath(id))
		os.Remove(r.manifestPath(id))
		delete(r.manifests, id)
		removed[id] = true
	}
	if len(removed) == 0 {
		return
	}
	// Drop pruned ids from the promotion history so Rollback never resolves
	// to a version whose files are gone.
	kept := r.history[:0]
	for _, id := range r.history {
		if !removed[id] {
			kept = append(kept, id)
		}
	}
	r.history = kept
	r.writeHistoryLocked() // best-effort: pruning is advisory
}

// writeFileAtomic writes via a temp file + rename so a crash mid-write
// never leaves a torn bank or manifest.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-*")
	if err != nil {
		return fmt.Errorf("registry: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("registry: writing %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("registry: writing %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("registry: writing %s: %w", path, err)
	}
	return nil
}
