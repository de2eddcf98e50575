// Package drift implements the concept-drift monitoring the paper's §5.3
// calls for in production deployments: prediction accuracy and confidence
// decay as user platforms update ("concept drift"), so the deployment team
// must detect under-performing classifiers and retrain them.
//
// The Monitor keeps per-(provider, transport) rolling windows of prediction
// confidence and unknown-rates. A classifier is flagged when its recent
// median confidence falls a configurable margin below its baseline, or when
// the share of rejected (unknown) flows exceeds a threshold — both symptoms
// the paper associates with drifting traffic. Verdicts are pollable
// (Statuses, NeedsRetraining) and pushed (Subscribe); after a bank
// hot-swap, Rebaseline starts fresh reference windows so the replacement
// model is never judged against its predecessor's distribution.
package drift

import (
	"fmt"
	"sort"
	"sync"

	"videoplat/internal/fingerprint"
	"videoplat/internal/pipeline"
)

// Config tunes detection.
type Config struct {
	// Window is the number of recent predictions per classifier considered
	// "current" (default 500), and the number of initial predictions that
	// form the reference distribution: the two medians compared are taken
	// over samples of the same size.
	Window int
	// ConfidenceDrop flags a classifier when the current median confidence
	// is below baseline median minus this margin (default 0.10).
	ConfidenceDrop float64
	// MaxUnknownRate flags a classifier when the current unknown-rate
	// exceeds this value (default 0.35).
	MaxUnknownRate float64
}

func (c *Config) defaults() {
	if c.Window <= 0 {
		c.Window = 500
	}
	if c.ConfidenceDrop == 0 {
		c.ConfidenceDrop = 0.10
	}
	if c.MaxUnknownRate == 0 {
		c.MaxUnknownRate = 0.35
	}
}

// key identifies one monitored classifier.
type key struct {
	Provider  fingerprint.Provider
	Transport fingerprint.Transport
}

type series struct {
	baseline []float64 // first Window confidences
	// recent and unknownRing are rings over the same last Window flows:
	// idx is the next slot of both, and full is set once they have wrapped.
	recent       []float64
	unknownRing  []bool
	idx          int
	full         bool
	observations int
	notified     bool   // a drifting verdict was already delivered to subscribers
	version      string // ModelVersion of the bank whose predictions fill the windows
}

// Status is the monitor's verdict for one classifier.
type Status struct {
	Provider  fingerprint.Provider
	Transport fingerprint.Transport

	Observations   int
	BaselineMedian float64
	RecentMedian   float64
	UnknownRate    float64
	// Drifting reports whether retraining is recommended.
	Drifting bool
	Reason   string
}

// evalPeriod is how many observations pass between subscriber-facing drift
// evaluations of a series. Computing medians costs a sort over the window,
// so Observe amortizes it instead of re-evaluating per flow; subscribers
// learn of a drifting classifier at most evalPeriod observations late.
const evalPeriod = 25

// Monitor accumulates prediction outcomes. Safe for concurrent use.
type Monitor struct {
	cfg Config

	mu     sync.Mutex
	series map[key]*series
	subs   []func(Status)
}

// NewMonitor returns a Monitor with the given configuration.
func NewMonitor(cfg Config) *Monitor {
	cfg.defaults()
	return &Monitor{cfg: cfg, series: map[key]*series{}}
}

// Subscribe registers fn to be called when a classifier transitions to
// drifting — the push counterpart of polling NeedsRetraining, used by
// registry.Retrainer to kick off retraining the moment decay is detected.
// Each classifier fires at most once until Rebaseline resets it. Callbacks
// run synchronously from the Observe caller's goroutine (without the
// monitor's lock held) and must be quick or hand off to their own
// goroutine.
func (m *Monitor) Subscribe(fn func(Status)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.subs = append(m.subs, fn)
}

// Rebaseline drops every classifier's reference and recent windows. Call
// after a bank hot-swap: the new bank must build its own baseline from its
// own predictions rather than being judged against the distribution of the
// model it replaced. Also re-arms Subscribe notifications. (With versioned
// banks each series additionally resets itself whenever the observed
// ModelVersion changes, so old-bank stragglers around a swap cannot
// contaminate the new baseline even before Rebaseline runs.)
func (m *Monitor) Rebaseline() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.series = map[key]*series{}
}

// Rearm clears the once-per-drift notification latch without touching the
// windows, so a still-drifting classifier notifies subscribers again — used
// after a rejected retrain candidate, where the drift is real but the first
// remedy failed and another attempt should be triggered.
func (m *Monitor) Rearm() {
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, s := range m.series {
		s.notified = false
	}
}

// Observe records one classified flow.
func (m *Monitor) Observe(rec *pipeline.FlowRecord) {
	if !rec.Verdict.ClassifierRan() {
		return
	}
	m.mu.Lock()
	k := key{rec.Provider, rec.Transport}
	s := m.series[k]
	if s != nil && s.version != rec.ModelVersion {
		// The serving bank changed under this series (records classified by
		// a replaced bank can straggle in around a hot-swap): never mix two
		// models' confidence distributions in one reference window.
		s = nil
	}
	if s == nil {
		s = &series{
			recent:      make([]float64, m.cfg.Window),
			unknownRing: make([]bool, m.cfg.Window),
			version:     rec.ModelVersion,
		}
		m.series[k] = s
	}
	s.observations++

	conf := rec.Prediction.PlatformConf
	unknown := rec.Prediction.Status == pipeline.Unknown
	if len(s.baseline) < m.cfg.Window {
		s.baseline = append(s.baseline, conf)
	}
	s.recent[s.idx] = conf
	s.unknownRing[s.idx] = unknown
	s.idx = (s.idx + 1) % m.cfg.Window
	if s.idx == 0 {
		s.full = true
	}

	// Amortized drift check for subscribers.
	var fire []func(Status)
	var st Status
	if len(m.subs) > 0 && !s.notified &&
		s.observations >= m.cfg.Window && s.observations%evalPeriod == 0 {
		st = m.statusLocked(k, s)
		if st.Drifting {
			s.notified = true
			fire = append(fire, m.subs...)
		}
	}
	m.mu.Unlock()
	for _, fn := range fire {
		fn(st)
	}
}

// Statuses reports per-classifier drift verdicts, sorted by provider then
// transport for stable output.
func (m *Monitor) Statuses() []Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []Status
	for k, s := range m.series {
		out = append(out, m.statusLocked(k, s))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Provider != out[j].Provider {
			return out[i].Provider < out[j].Provider
		}
		return out[i].Transport < out[j].Transport
	})
	return out
}

// NeedsRetraining lists the classifiers currently flagged.
func (m *Monitor) NeedsRetraining() []Status {
	var out []Status
	for _, st := range m.Statuses() {
		if st.Drifting {
			out = append(out, st)
		}
	}
	return out
}

// statusLocked computes one classifier's verdict; callers must hold mu.
func (m *Monitor) statusLocked(k key, s *series) Status {
	st := Status{Provider: k.Provider, Transport: k.Transport, Observations: s.observations}
	st.BaselineMedian = median(s.baseline)
	st.RecentMedian = median(s.recentWindow())
	st.UnknownRate = s.unknownRate()
	switch {
	case s.observations < m.cfg.Window:
		st.Reason = "warming up"
	case st.RecentMedian < st.BaselineMedian-m.cfg.ConfidenceDrop:
		st.Drifting = true
		st.Reason = fmt.Sprintf("median confidence dropped %.0f%% -> %.0f%%",
			st.BaselineMedian*100, st.RecentMedian*100)
	case st.UnknownRate > m.cfg.MaxUnknownRate:
		st.Drifting = true
		st.Reason = fmt.Sprintf("unknown rate %.0f%% exceeds %.0f%%",
			st.UnknownRate*100, m.cfg.MaxUnknownRate*100)
	default:
		st.Reason = "healthy"
	}
	return st
}

// filled is how many slots of the rings hold observations.
func (s *series) filled() int {
	if s.full {
		return len(s.recent)
	}
	return s.idx
}

func (s *series) recentWindow() []float64 { return s.recent[:s.filled()] }

func (s *series) unknownRate() float64 {
	ring := s.unknownRing[:s.filled()]
	if len(ring) == 0 {
		return 0
	}
	n := 0
	for _, u := range ring {
		if u {
			n++
		}
	}
	return float64(n) / float64(len(ring))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64{}, xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
