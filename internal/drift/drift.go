// Package drift implements the concept-drift monitoring the paper's §5.3
// calls for in production deployments: prediction accuracy and confidence
// decay as user platforms update ("concept drift"), so the deployment team
// must detect under-performing classifiers and retrain them.
//
// The Monitor keeps per-(provider, transport) rolling windows of prediction
// confidence and unknown-rates. A classifier is flagged when its recent
// median confidence falls a configurable margin below its baseline, or when
// the share of rejected (unknown) flows exceeds a fixed 35 % — both symptoms
// the paper associates with drifting traffic. Observe only records; the
// verdicts are computed when Statuses is read (the daemon reads it once per
// sealed telemetry window). Each series judges one bank version: a flow
// goes to the series of its own ModelVersion, so after a hot-swap the
// replacement model builds its own reference from its first Window flows and
// is never judged against its predecessor's distribution, and a record the
// replaced bank classified — they straggle in around a swap — leaves the
// serving version's series as it was. A classifier keeps the series of its
// two most recently observed versions (maxVersions); a third version's
// first flow drops the least recent.
package drift

import (
	"fmt"
	"slices"
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
}

// maxUnknownRate flags a classifier when its current unknown-rate exceeds
// it.
const maxUnknownRate = 0.35

func (c *Config) defaults() {
	if c.Window <= 0 {
		c.Window = 500
	}
	if c.ConfidenceDrop == 0 {
		c.ConfidenceDrop = 0.10
	}
}

// maxVersions bounds the series one classifier keeps: the serving bank's
// and the one it replaced, whose records straggle in after a swap (or which
// serves again after a rollback).
const maxVersions = 2

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
	version      string // ModelVersion of the bank whose predictions fill the windows
}

// Status is the monitor's verdict for one classifier.
type Status struct {
	Provider  fingerprint.Provider  `json:"provider"`
	Transport fingerprint.Transport `json:"transport"`
	// Version is the ModelVersion of the bank this series judges.
	Version string `json:"version"`

	Observations   int     `json:"observations"`
	BaselineMedian float64 `json:"baseline_median"`
	RecentMedian   float64 `json:"recent_median"`
	UnknownRate    float64 `json:"unknown_rate"`
	// Drifting reports whether retraining is recommended.
	Drifting bool   `json:"drifting"`
	Reason   string `json:"reason"`
}

// Monitor accumulates prediction outcomes. Safe for concurrent use.
type Monitor struct {
	cfg Config

	mu sync.Mutex
	// series holds each classifier's series, one per bank version, the most
	// recently observed last.
	series map[key][]*series
}

// NewMonitor returns a Monitor with the given configuration.
func NewMonitor(cfg Config) *Monitor {
	cfg.defaults()
	return &Monitor{cfg: cfg, series: map[key][]*series{}}
}

// Observe records one classified flow. It only records: no verdict is
// computed here, and a series that has seen Window flows allocates nothing.
func (m *Monitor) Observe(rec *pipeline.FlowRecord) {
	if !rec.Verdict.ClassifierRan() {
		return
	}
	m.mu.Lock()
	k := key{rec.Provider, rec.Transport}
	ss := m.series[k]
	i := slices.IndexFunc(ss, func(s *series) bool { return s.version == rec.ModelVersion })
	if i < 0 {
		// A version this classifier has not seen lately: its own series,
		// never mixing two models' confidence distributions in one window.
		if len(ss) == maxVersions {
			ss = slices.Delete(ss, 0, 1)
		}
		ss = append(ss, &series{
			baseline:    make([]float64, 0, m.cfg.Window),
			recent:      make([]float64, m.cfg.Window),
			unknownRing: make([]bool, m.cfg.Window),
			version:     rec.ModelVersion,
		})
		m.series[k] = ss
		i = len(ss) - 1
	}
	s := ss[i]
	ss[i], ss[len(ss)-1] = ss[len(ss)-1], s // the most recently observed last
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
	m.mu.Unlock()
}

// Statuses reports a drift verdict per classifier and bank version, sorted
// by provider, transport and version for stable output.
func (m *Monitor) Statuses() []Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []Status
	for k, ss := range m.series {
		for _, s := range ss {
			out = append(out, m.statusLocked(k, s))
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Provider != out[j].Provider {
			return out[i].Provider < out[j].Provider
		}
		if out[i].Transport != out[j].Transport {
			return out[i].Transport < out[j].Transport
		}
		return out[i].Version < out[j].Version
	})
	return out
}

// statusLocked computes one classifier's verdict; callers must hold mu.
func (m *Monitor) statusLocked(k key, s *series) Status {
	st := Status{Provider: k.Provider, Transport: k.Transport, Version: s.version,
		Observations: s.observations}
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
	case st.UnknownRate > maxUnknownRate:
		st.Drifting = true
		st.Reason = fmt.Sprintf("unknown rate %.0f%% exceeds %.0f%%",
			st.UnknownRate*100, maxUnknownRate*100)
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
