package registry

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"videoplat/internal/features"
	"videoplat/internal/obs"
	"videoplat/internal/pipeline"
)

// TrainFunc produces a replacement bank — in production, train on freshly
// collected ground truth from the drifted fleet; in the synthetic
// reproduction, regenerate a lab dataset (optionally with the open-set
// profile perturbation) and fit a new forest. It runs on the retrainer's
// background goroutine, never on the serving path. reason is the drift
// verdict that triggered it; seed varies per attempt so repeated retrains
// explore different draws.
type TrainFunc func(reason string, seed uint64) (*pipeline.Bank, error)

// RetrainerConfig tunes the drift → retrain → shadow → promote loop.
type RetrainerConfig struct {
	// Train builds candidate banks. Required.
	Train TrainFunc
	// Gate is the shadow-evaluation promotion bar.
	Gate Gate
	// Seed is the base RNG seed; attempt i trains with Seed+i.
	Seed uint64
	// Cooldown is the minimum wall-clock gap between training attempts
	// (default 1 minute), so a flapping drift signal cannot melt the CPU.
	Cooldown time.Duration
	// Events, if non-nil, receives the retrain lifecycle as typed ops
	// events: shadow_start when a candidate enters evaluation,
	// shadow_verdict when it resolves, and retrain_error on training
	// failures.
	Events *obs.Journal
}

// shadowEval pairs a running Shadow with the candidate version under test.
type shadowEval struct {
	sh *Shadow
	id string
}

// triggerReq is a retrain request for the bank version whose drift verdict
// raised it; once that version no longer serves the request is stale and is
// dropped.
type triggerReq struct {
	version, reason string
}

// Retrainer closes the paper's §5.3 loop: a caller that reads a drift
// verdict calls Trigger with the version it judged (the daemon does so at
// each sealed telemetry window while a classifier is flagged), a request for
// a version the registry no longer serves is dropped, and otherwise a
// candidate bank is trained off the hot path, stored in the registry,
// shadow-evaluated on live traffic, and promoted — hot-swapping every
// subscriber via Registry.OnSwap — only when it clears the gate. A rejected
// candidate is recorded; while the drift persists the next Trigger after the
// cooldown trains another with a fresh seed. Everything but the shadow's
// sampling runs on Start's goroutine.
type Retrainer struct {
	reg *Registry
	cfg RetrainerConfig

	shadow  atomic.Pointer[shadowEval]
	trigger chan triggerReq
	// ready carries at most one pending "the shadow has its verdict" token
	// from ObserveClassified to Start.
	ready chan struct{}

	retrains   atomic.Uint64
	promotions atomic.Uint64
	rejections atomic.Uint64

	// shadowAgreed/shadowDisagreed total the agreement tallies of every
	// shadow evaluation, each sample added as ObserveClassified records it.
	shadowAgreed    atomic.Uint64
	shadowDisagreed atomic.Uint64

	mu          sync.Mutex
	lastAttempt time.Time
	lastErr     error
}

// NewRetrainer returns a Retrainer over a registry with at least one
// promoted version (the shadow needs an active bank to compare against).
func NewRetrainer(reg *Registry, cfg RetrainerConfig) (*Retrainer, error) {
	if cfg.Train == nil {
		return nil, fmt.Errorf("registry: RetrainerConfig.Train is required")
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = time.Minute
	}
	cfg.Gate.defaults()
	return &Retrainer{reg: reg, cfg: cfg,
		trigger: make(chan triggerReq, 1), ready: make(chan struct{}, 1)}, nil
}

// Trigger requests a retrain of version, the bank version whose drift
// verdict is reason (non-blocking; duplicate requests while one is pending
// or a shadow is running are coalesced/dropped, and Start drops a request
// once version no longer serves).
func (rt *Retrainer) Trigger(version, reason string) {
	select {
	case rt.trigger <- triggerReq{version: version, reason: reason}:
	default:
	}
}

// Start runs the retrain loop until ctx is cancelled. Call from its own
// goroutine; training and the promote-or-reject of a finished shadow
// evaluation happen here, never on the serving path. When Start returns
// the retrainer writes nothing more to the registry, so the caller may tear
// down the registry directory once it has waited for Start.
func (rt *Retrainer) Start(ctx context.Context) {
	attempt := uint64(0)
	for {
		var req triggerReq
		select {
		case <-ctx.Done():
			return
		case <-rt.ready:
			// A token can outlive the evaluation it announced; resolve only
			// a shadow that has its verdict.
			if se := rt.shadow.Load(); se != nil {
				if metrics, ok := se.sh.Verdict(); ok && rt.shadow.CompareAndSwap(se, nil) {
					rt.resolve(se, metrics)
				}
			}
			continue
		case req = <-rt.trigger:
		}
		if rt.shadow.Load() != nil {
			continue // already evaluating a candidate
		}
		if cur := rt.reg.Current(); cur == nil || cur.Manifest.ID != req.version {
			continue // verdict described a bank that no longer serves
		}
		if !rt.waitCooldown(ctx) {
			return
		}

		seed := rt.cfg.Seed + attempt
		attempt++
		rt.mu.Lock()
		rt.lastAttempt = time.Now()
		rt.mu.Unlock()

		bank, err := rt.cfg.Train(req.reason, seed)
		if err != nil {
			rt.setErr(fmt.Errorf("registry: retraining: %w", err))
			rt.cfg.Events.Record(obs.EventRetrainError, "background retraining failed",
				"reason", req.reason, "error", err.Error())
			continue
		}
		man, err := rt.reg.Add(bank, req.reason, seed)
		if err != nil {
			rt.setErr(err)
			rt.cfg.Events.Record(obs.EventRetrainError, "storing retrained bank failed",
				"reason", req.reason, "error", err.Error())
			continue
		}
		rt.retrains.Add(1)
		rt.shadow.Store(&shadowEval{sh: NewShadow(bank, rt.cfg.Gate), id: man.ID})
		rt.cfg.Events.Record(obs.EventShadowStart, "candidate bank entering shadow evaluation",
			"version", man.ID, "reason", req.reason)
	}
}

// ObserveClassified feeds one live classification to the running shadow
// evaluation, if any — wire it to pipeline Config.OnClassify. When the
// shadow reaches its verdict it hands Start a token and returns: Start
// promotes or rejects the candidate, so the serving path never waits on
// registry disk IO. Safe for concurrent use from shard goroutines. The
// HandshakeInfo is only borrowed for the duration of the call (the
// OnClassify contract).
func (rt *Retrainer) ObserveClassified(rec *pipeline.FlowRecord, hs *features.HandshakeInfo) {
	se := rt.shadow.Load()
	if se == nil {
		return
	}
	// A sample is totalled here, as its shadow counts it, so the totals
	// take every sample exactly once, even one a shard adds after Start
	// resolved the shadow.
	agreed, disagreed, ready := se.sh.Observe(rec, hs)
	rt.shadowAgreed.Add(agreed)
	rt.shadowDisagreed.Add(disagreed)
	if !ready {
		return
	}
	select {
	case rt.ready <- struct{}{}:
	default: // a token is already waiting
	}
}

// resolve records a finished shadow evaluation and promotes or rejects its
// candidate.
func (rt *Retrainer) resolve(se *shadowEval, metrics ShadowMetrics) {
	rt.cfg.Events.Record(obs.EventShadowVerdict, metrics.Reason,
		"version", se.id,
		"promoted", fmt.Sprintf("%t", metrics.Promoted),
		"flows", fmt.Sprintf("%d", metrics.Flows))
	if err := rt.reg.SetShadowMetrics(se.id, metrics, metrics.Promoted); err != nil {
		rt.setErr(err)
	}
	if metrics.Promoted {
		if _, err := rt.reg.Promote(se.id); err != nil {
			rt.setErr(err)
			return
		}
		rt.promotions.Add(1)
		return
	}
	rt.rejections.Add(1)
}

// ShadowCounts reports cumulative shadow agreement/disagreement across every
// shadow evaluation this retrainer ran, resolved or live: the sum of their
// Counts. Neither count ever decreases, so a consumer's deltas need no
// clamp. Safe from any goroutine.
func (rt *Retrainer) ShadowCounts() (agreed, disagreed uint64) {
	return rt.shadowAgreed.Load(), rt.shadowDisagreed.Load()
}

func (rt *Retrainer) waitCooldown(ctx context.Context) bool {
	rt.mu.Lock()
	wait := rt.cfg.Cooldown - time.Since(rt.lastAttempt)
	last := rt.lastAttempt
	rt.mu.Unlock()
	if last.IsZero() || wait <= 0 {
		return true
	}
	select {
	case <-ctx.Done():
		return false
	case <-time.After(wait):
		return true
	}
}

func (rt *Retrainer) setErr(err error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	rt.lastErr = err
}

// Status is the retrainer's live state for the operations API.
type Status struct {
	Retrains     uint64 `json:"retrains"`
	Promotions   uint64 `json:"promotions"`
	Rejections   uint64 `json:"rejections"`
	ShadowActive bool   `json:"shadow_active"`
	// ShadowCandidate is the version id under shadow evaluation, if any.
	ShadowCandidate string `json:"shadow_candidate,omitempty"`
	ShadowFlows     int    `json:"shadow_flows,omitempty"`
	LastError       string `json:"last_error,omitempty"`
}

// Status reports the retrainer's counters and any running shadow
// evaluation. Safe from any goroutine.
func (rt *Retrainer) Status() Status {
	st := Status{
		Retrains:   rt.retrains.Load(),
		Promotions: rt.promotions.Load(),
		Rejections: rt.rejections.Load(),
	}
	if se := rt.shadow.Load(); se != nil {
		st.ShadowActive = true
		st.ShadowCandidate = se.id
		m, _ := se.sh.Verdict()
		st.ShadowFlows = m.Flows
	}
	rt.mu.Lock()
	if rt.lastErr != nil {
		st.LastError = rt.lastErr.Error()
	}
	rt.mu.Unlock()
	return st
}
