package registry

import (
	"fmt"
	"sync"

	"videoplat/internal/features"
	"videoplat/internal/pipeline"
)

// Gate is the promotion bar a candidate bank must clear in shadow
// evaluation before it may replace the active bank. Zero values select the
// defaults noted per field.
type Gate struct {
	// SampleRate is the fraction of classified live flows that are also
	// classified by the candidate (default 0.25). Sampling is deterministic
	// (every round(1/rate)-th flow), so shadow cost is bounded and runs are
	// reproducible.
	SampleRate float64
	// MinFlows is how many shadow classifications are required before a
	// verdict (default 200).
	MinFlows int
	// MinAgreement is the minimum fraction of flows, among those where both
	// banks predicted a composite platform, on which the candidate must
	// agree with the active bank (default 0.5). A candidate that
	// confidently contradicts the incumbent everywhere is suspect even if
	// its own confidence is high. Skipped when no flow had both banks
	// confident. An exact 0 selects the default; negative disables the
	// check.
	MinAgreement float64
}

// The gate's tolerance for sampling noise, fixed: a candidate retrained on
// fresh ground truth should match or beat the incumbent, and these are the
// margins within which "match" holds over MinFlows samples. A deployment
// that wants a stricter or looser bar moves MinFlows or MinAgreement.
const (
	// confidenceSlack is how far the candidate's mean platform confidence
	// may sit below the active bank's and still pass.
	confidenceSlack = 0.02
	// unknownSlack is how far the candidate's unknown-rate may exceed the
	// active bank's and still pass.
	unknownSlack = 0.05
)

func (g *Gate) defaults() {
	if g.SampleRate <= 0 || g.SampleRate > 1 {
		g.SampleRate = 0.25
	}
	if g.MinFlows <= 0 {
		g.MinFlows = 200
	}
	if g.MinAgreement == 0 {
		g.MinAgreement = 0.5
	}
}

// ShadowMetrics summarizes one shadow evaluation — stored in the
// candidate's manifest whether it was promoted or rejected.
type ShadowMetrics struct {
	Flows                int     `json:"flows"`
	CandidateMeanConf    float64 `json:"candidate_mean_conf"`
	ActiveMeanConf       float64 `json:"active_mean_conf"`
	CandidateUnknownRate float64 `json:"candidate_unknown_rate"`
	ActiveUnknownRate    float64 `json:"active_unknown_rate"`
	// Agreement is measured over AgreementFlows: the sampled flows where
	// both banks predicted a composite platform.
	Agreement      float64 `json:"agreement"`
	AgreementFlows int     `json:"agreement_flows"`
	Promoted       bool    `json:"promoted"`
	Reason         string  `json:"reason"`
}

// Shadow runs a candidate bank alongside the active one on a sample of live
// flows. Feed it from the pipeline's OnClassify hook; once MinFlows samples
// accumulate, Verdict reports whether the candidate clears the Gate. Safe
// for concurrent use from shard goroutines.
type Shadow struct {
	gate      Gate
	candidate *pipeline.Bank

	mu          sync.Mutex
	seen        uint64 // classified flows offered (sampled or not)
	every       uint64
	flows       int
	candConfSum float64
	actConfSum  float64
	candUnknown int
	actUnknown  int
	bothComp    int
	agree       int
}

// NewShadow starts a shadow evaluation of candidate under gate.
func NewShadow(candidate *pipeline.Bank, gate Gate) *Shadow {
	gate.defaults()
	every := uint64(1.0/gate.SampleRate + 0.5)
	if every < 1 {
		every = 1
	}
	return &Shadow{gate: gate, candidate: candidate, every: every}
}

// Observe offers one live classification (the active bank's record plus the
// assembled handshake) to the sampler. When the flow is sampled, the
// candidate classifies the same handshake and the outcomes are accumulated.
// The HandshakeInfo is only borrowed for the duration of the call, matching
// the pipeline's OnClassify contract. agreed or disagreed is 1 when the
// flow was sampled and both banks predicted a composite platform: the
// sample's share of Counts, so a caller can total agreement over many
// shadows as each sample is counted. ready is true once enough samples
// exist for a verdict.
func (sh *Shadow) Observe(rec *pipeline.FlowRecord, hs *features.HandshakeInfo) (agreed, disagreed uint64, ready bool) {
	sh.mu.Lock()
	sh.seen++
	if sh.seen%sh.every != 0 {
		ready = sh.flows >= sh.gate.MinFlows
		sh.mu.Unlock()
		return 0, 0, ready
	}
	sh.mu.Unlock()

	// Classify outside the lock: forest prediction is read-only and this
	// runs on the serving path's shard goroutines. The nil scratch keeps
	// Shadow concurrency-safe; sampling bounds the allocation cost.
	pred, err := sh.candidate.ClassifyHandshake(rec.Provider, rec.Transport, hs, nil)

	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.flows++
	if err != nil {
		// The candidate cannot classify a (provider, transport) the active
		// bank handles: count it as a zero-confidence unknown for the
		// candidate while still crediting the active bank's outcome —
		// otherwise a deficient candidate would deflate ActiveMeanConf
		// (the divisor counts all sampled flows) and weaken its own gate.
		sh.candUnknown++
		sh.actConfSum += rec.Prediction.PlatformConf
		if rec.Prediction.Status == pipeline.Unknown {
			sh.actUnknown++
		}
		return 0, 0, sh.flows >= sh.gate.MinFlows
	}
	sh.candConfSum += pred.PlatformConf
	sh.actConfSum += rec.Prediction.PlatformConf
	if pred.Status == pipeline.Unknown {
		sh.candUnknown++
	}
	if rec.Prediction.Status == pipeline.Unknown {
		sh.actUnknown++
	}
	if pred.Status == pipeline.Composite && rec.Prediction.Status == pipeline.Composite {
		sh.bothComp++
		if pred.Platform == rec.Prediction.Platform {
			sh.agree++
			agreed = 1
		} else {
			disagreed = 1
		}
	}
	return agreed, disagreed, sh.flows >= sh.gate.MinFlows
}

// Counts reports the agreement tallies so far: among sampled flows where
// both banks predicted a composite platform, how many agreed on the platform
// and how many did not. Safe for concurrent use; telemetry stamps these into
// sealed windows as shadow agreement/disagreement.
func (sh *Shadow) Counts() (agreed, disagreed uint64) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return uint64(sh.agree), uint64(sh.bothComp - sh.agree)
}

// Verdict reports whether the candidate clears the gate. ok is false until
// MinFlows samples have accumulated.
func (sh *Shadow) Verdict() (m ShadowMetrics, ok bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	m = sh.metricsLocked()
	if sh.flows < sh.gate.MinFlows {
		return m, false
	}
	switch {
	case m.CandidateMeanConf < m.ActiveMeanConf-confidenceSlack:
		m.Reason = fmt.Sprintf("candidate mean confidence %.2f below active %.2f (slack %.2f)",
			m.CandidateMeanConf, m.ActiveMeanConf, confidenceSlack)
	case m.CandidateUnknownRate > m.ActiveUnknownRate+unknownSlack:
		m.Reason = fmt.Sprintf("candidate unknown rate %.2f exceeds active %.2f (slack %.2f)",
			m.CandidateUnknownRate, m.ActiveUnknownRate, unknownSlack)
	case m.AgreementFlows > 0 && m.Agreement < sh.gate.MinAgreement:
		m.Reason = fmt.Sprintf("agreement %.2f below %.2f over %d confident flows",
			m.Agreement, sh.gate.MinAgreement, m.AgreementFlows)
	default:
		m.Promoted = true
		m.Reason = fmt.Sprintf("cleared gate: confidence %.2f vs %.2f, unknown %.2f vs %.2f, agreement %.2f",
			m.CandidateMeanConf, m.ActiveMeanConf,
			m.CandidateUnknownRate, m.ActiveUnknownRate, m.Agreement)
	}
	return m, true
}

func (sh *Shadow) metricsLocked() ShadowMetrics {
	m := ShadowMetrics{Flows: sh.flows, AgreementFlows: sh.bothComp}
	if sh.flows > 0 {
		n := float64(sh.flows)
		m.CandidateMeanConf = sh.candConfSum / n
		m.ActiveMeanConf = sh.actConfSum / n
		m.CandidateUnknownRate = float64(sh.candUnknown) / n
		m.ActiveUnknownRate = float64(sh.actUnknown) / n
	}
	if sh.bothComp > 0 {
		m.Agreement = float64(sh.agree) / float64(sh.bothComp)
	}
	return m
}
