package pipeline

import (
	"fmt"

	"videoplat/internal/features"
	"videoplat/internal/fingerprint"
)

// The reference evaluator: Encoder.Transform over extracted FieldValues, then
// the forests' reference walk, in the same §4.1 cascade. It is the oracle the
// golden-equivalence tests pin the compiled evaluator (Bank.ClassifyHandshake,
// one encoded row per flow) against, and lives in a _test file so nothing can
// serve, simulate or experiment through it.

// predict returns the winning class, its probability and the top-1/top-2
// margin read from the same probability vector.
func (m *Model) predict(v *features.FieldValues) (string, float64, float64) {
	var proba []float64
	ci, conf := m.Forest.PredictInto(m.Encoder.Transform(v), &proba)
	return m.Classes[ci], conf, probaMargin(proba, ci, conf)
}

// Classify runs the §4.1 cascade for a flow through the reference evaluator:
// the platform objective, then — only when it is below the confidence
// threshold — the device and agent objectives, then the confidence selector.
func (b *Bank) Classify(prov fingerprint.Provider, tr fingerprint.Transport, v *features.FieldValues) (Prediction, error) {
	var p Prediction
	e := b.entry(prov, tr)
	if e == nil {
		return p, fmt.Errorf("pipeline: no models for %s/%s", prov, tr)
	}
	p.Platform, p.PlatformConf, p.PlatformMargin = e.platform.predict(v)
	if p.PlatformConf < ConfidenceThreshold {
		p.Device, p.DeviceConf, _ = e.device.predict(v)
		p.Agent, p.AgentConf, _ = e.agent.predict(v)
	}
	p.applySelector()
	return p, nil
}
