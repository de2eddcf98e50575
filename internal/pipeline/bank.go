package pipeline

import (
	"fmt"

	"videoplat/internal/features"
	"videoplat/internal/fingerprint"
	"videoplat/internal/ml"
	"videoplat/internal/tracegen"
)

// Objective selects what a classifier predicts (§4.1: composite user
// platform, device type only, or software agent only).
type Objective uint8

// Prediction objectives.
const (
	PlatformObjective Objective = iota
	DeviceObjective
	AgentObjective
)

// String names the objective.
func (o Objective) String() string {
	switch o {
	case PlatformObjective:
		return "user platform"
	case DeviceObjective:
		return "device type"
	default:
		return "software agent"
	}
}

// Model is one trained classifier: its fitted encoder, forest and class
// universe, plus the compiled serving forms of both, lowered once when the
// bank that holds the model is built (Bank.buildIndex).
type Model struct {
	Encoder *features.Encoder
	Forest  *ml.RandomForest
	Classes []string

	compiled *features.CompiledEncoder
	cforest  *ml.CompiledForest
}

// Compiled returns the model's serving-path compiled encoder. Never nil for
// a model of a bank TrainBank or UnmarshalBinary returned.
func (m *Model) Compiled() *features.CompiledEncoder { return m.compiled }

// CompiledForest returns the model's serving-path compiled forest (flat node
// arrays). Never nil for a model of a bank TrainBank or UnmarshalBinary
// returned.
func (m *Model) CompiledForest() *ml.CompiledForest { return m.cforest }

// bankKey identifies a model in the bank.
type bankKey struct {
	Provider  fingerprint.Provider
	Transport fingerprint.Transport
	Objective Objective
}

// Bank is the classifier bank of Fig 4: three objectives per provider, with
// separate models per transport (YouTube has both TCP and QUIC models, so a
// full bank holds 15 models; the paper counts 12 classifiers by provider ×
// objective).
type Bank struct {
	models map[bankKey]*Model
	Config ml.ForestConfig
	// Version is the registry identity of this bank (e.g. "v0003"), stamped
	// by internal/registry when the bank is stored and carried through
	// serialization, so classifications and exports stay attributable.
	// Empty for ad-hoc banks that never went through a registry.
	Version string

	// entries is the serving-path index: per (provider, transport), the
	// three objective models, whose fitted encoders are equivalent so a flow
	// is encoded once — by the platform model's compiled encoder — for all
	// three predictions. Built by buildIndex; read-only afterwards.
	entries map[entryKey]*bankEntry
}

type entryKey struct {
	Provider  fingerprint.Provider
	Transport fingerprint.Transport
}

type bankEntry struct {
	platform, device, agent *Model
}

// entry returns the serving index entry for a (provider, transport), or nil
// when any objective model is missing.
func (b *Bank) entry(prov fingerprint.Provider, tr fingerprint.Transport) *bankEntry {
	return b.entries[entryKey{prov, tr}]
}

// buildIndex lowers every model into its compiled serving forms and builds
// the serving index over them — the last step of TrainBank and
// UnmarshalBinary, so a bank that exists can be served: there is no
// uncompiled path to fall back to. It fails, naming the model, when an
// encoder or forest cannot compile or when the three objective encoders of
// one (provider, transport) differ and so cannot share an encode pass.
func (b *Bank) buildIndex() error {
	for key, m := range b.models {
		var err error
		if m.compiled, err = features.Compile(m.Encoder); err == nil {
			m.cforest, err = ml.CompileForest(m.Forest)
		}
		if err != nil {
			return fmt.Errorf("pipeline: compiling %s/%s/%s: %w", key.Provider, key.Transport, key.Objective, err)
		}
	}
	b.entries = map[entryKey]*bankEntry{}
	for key, m := range b.models {
		if key.Objective != PlatformObjective {
			continue
		}
		e := &bankEntry{
			platform: m,
			device:   b.models[bankKey{key.Provider, key.Transport, DeviceObjective}],
			agent:    b.models[bankKey{key.Provider, key.Transport, AgentObjective}],
		}
		if e.device == nil || e.agent == nil {
			continue
		}
		for obj, other := range map[Objective]*Model{DeviceObjective: e.device, AgentObjective: e.agent} {
			if !m.Encoder.EquivalentTo(other.Encoder) {
				return fmt.Errorf("pipeline: %s/%s/%s: encoder differs from the %s model's",
					key.Provider, key.Transport, obj, PlatformObjective)
			}
		}
		b.entries[entryKey{key.Provider, key.Transport}] = e
	}
	return nil
}

// TrainConfig controls bank training.
type TrainConfig struct {
	Forest ml.ForestConfig
	// Subset restricts the attribute set by Table 2 labels (nil = all
	// applicable attributes, the deployed configuration).
	Subset []string
}

// DefaultForestConfig mirrors the paper's selected hyperparameters:
// depth 20 with 34 candidate attributes per split performed best in Fig 6(a).
func DefaultForestConfig() ml.ForestConfig {
	return ml.ForestConfig{NumTrees: 40, MaxDepth: 20, MaxFeatures: 34, Seed: 1}
}

// TrainBank trains models for every (provider, transport, objective) with
// data in the dataset.
func TrainBank(ds *tracegen.Dataset, cfg TrainConfig) (*Bank, error) {
	if cfg.Forest.NumTrees == 0 {
		cfg.Forest = DefaultForestConfig()
	}
	b := &Bank{models: map[bankKey]*Model{}, Config: cfg.Forest}

	type group struct {
		values []*features.FieldValues
		labels []string
	}
	groups := map[[2]int]*group{}
	for _, ft := range ds.Flows {
		info, err := ExtractTrace(ft)
		if err != nil {
			return nil, err
		}
		v := features.Extract(info)
		k := [2]int{int(ft.Provider), int(ft.Transport)}
		g := groups[k]
		if g == nil {
			g = &group{}
			groups[k] = g
		}
		g.values = append(g.values, v)
		g.labels = append(g.labels, ft.Label)
	}

	for k, g := range groups {
		prov := fingerprint.Provider(k[0])
		tr := fingerprint.Transport(k[1])
		for _, obj := range []Objective{PlatformObjective, DeviceObjective, AgentObjective} {
			m, err := trainOne(g.values, g.labels, tr == fingerprint.QUIC, obj, cfg)
			if err != nil {
				return nil, fmt.Errorf("pipeline: training %s/%s/%s: %w", prov, tr, obj, err)
			}
			b.models[bankKey{prov, tr, obj}] = m
		}
	}
	if err := b.buildIndex(); err != nil {
		return nil, err
	}
	return b, nil
}

func trainOne(values []*features.FieldValues, labels []string, quic bool, obj Objective, cfg TrainConfig) (*Model, error) {
	enc, err := features.NewEncoder(quic, cfg.Subset)
	if err != nil {
		return nil, err
	}
	enc.Fit(values)
	x := enc.TransformAll(values)

	objLabels := make([]string, len(labels))
	for i, l := range labels {
		objLabels[i] = objectiveLabel(l, obj)
	}
	d, err := ml.NewDataset(x, objLabels)
	if err != nil {
		return nil, err
	}
	forest := &ml.RandomForest{Config: cfg.Forest}
	forest.Fit(d)
	return &Model{Encoder: enc, Forest: forest, Classes: d.Classes}, nil
}

func objectiveLabel(label string, obj Objective) string {
	switch obj {
	case DeviceObjective:
		return DeviceOf(label)
	case AgentObjective:
		return AgentOf(label)
	default:
		return label
	}
}

// Model returns the trained model for a key, or nil.
func (b *Bank) Model(prov fingerprint.Provider, tr fingerprint.Transport, obj Objective) *Model {
	return b.models[bankKey{prov, tr, obj}]
}

// CompiledFootprint summarizes the bank's compiled serving index: its
// models' total flattened node count and the resident bytes those arrays
// pin. Surfaced through the ops endpoints so operators can see what the
// compiled evaluator costs in memory.
type CompiledFootprint struct {
	// Models counts the bank's trained models and CompiledModels those with
	// a compiled forest: the same number, since a bank is compiled where it
	// is built. Both stay in the document for its readers.
	Models         int   `json:"models"`
	CompiledModels int   `json:"compiled_models"`
	Nodes          int   `json:"nodes"`
	Bytes          int64 `json:"bytes"`
}

// CompiledFootprint reports the bank's compiled serving-index footprint.
func (b *Bank) CompiledFootprint() CompiledFootprint {
	var fp CompiledFootprint
	for _, m := range b.models {
		fp.Models++
		fp.CompiledModels++
		fp.Nodes += m.cforest.NumNodes()
		fp.Bytes += m.cforest.Bytes()
	}
	return fp
}

// ConfidenceThreshold is the §4.1 cutoff below which the composite
// prediction is not trusted.
const ConfidenceThreshold = 0.8

// Status describes how much of the user platform was confidently predicted.
type Status uint8

// Prediction statuses.
const (
	Composite Status = iota // full platform predicted with high confidence
	Partial                 // only device and/or agent predicted confidently
	Unknown                 // nothing confident: rejected
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Composite:
		return "composite"
	case Partial:
		return "partial"
	default:
		return "unknown"
	}
}

// Prediction is the confidence-selected output for one video flow (§4.1).
type Prediction struct {
	Status Status

	Platform     string
	PlatformConf float64
	// PlatformMargin is the probability gap between the platform model's top
	// class and its runner-up — how decisively the forest separated the
	// winner, lifted from the same PredictProbaInto pass that produced
	// PlatformConf. A high-confidence, low-margin prediction means two
	// platforms looked almost equally likely; telemetry folds it alongside
	// the confidence so operators can see decisiveness decay before the
	// selector starts abstaining. Equal to PlatformConf when the model knows
	// only one class.
	PlatformMargin float64
	Device         string
	DeviceConf     float64
	Agent          string
	AgentConf      float64
}

// Verdict is the decision a full-feature prediction gives its flow:
// classified, or abstained when the confidence selector rejected it.
func (p Prediction) Verdict() Verdict {
	if p.Status == Unknown {
		return VerdictAbstained
	}
	return VerdictClassified
}

// ClassifyScratch holds one worker's reusable classification buffers: the
// encoded row matrix, the forest probability matrix and the compiled
// encoder's extension-walking scratch. Each pipeline (and thus each shard)
// owns one, so the steady-state encode+predict path performs no allocations.
// The zero value is ready to use; not safe for concurrent use.
type ClassifyScratch struct {
	// rows is the encoded-row matrix (flows × encoder width, packed
	// back-to-back); proba is one objective's probability matrix (flows ×
	// class count). Both are reused via their capacity.
	rows  []float64
	proba []float64
	enc   features.EncodeScratch
}

// growFloats resizes a scratch buffer to n elements, growing its capacity
// amortized and zeroing the visible window.
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		s = append(s[:cap(s)], make([]float64, n-cap(s))...) // amortized scratch growth, pinned by TestClassifyBatchZeroAlloc
	}
	s = s[:n]
	clear(s)
	return s
}

// ClassifyHandshake classifies one assembled handshake: ClassifyBatch over a
// single flow. Zero-allocation with a warm scratch, pinned by
// TestClassifyHandshakeZeroAlloc.
func (b *Bank) ClassifyHandshake(prov fingerprint.Provider, tr fingerprint.Transport, info *features.HandshakeInfo, sc *ClassifyScratch) (Prediction, error) {
	infos := [1]*features.HandshakeInfo{info}
	var out [1]Prediction
	err := b.ClassifyBatch(prov, tr, infos[:], sc, out[:])
	return out[0], err
}

// ClassifyBatch is the bank's one classifier — serving, experiments and the
// campus simulation all answer through it: it classifies the handshakes of
// one (provider, transport) through the bank's compiled evaluator and applies
// the §4.1 confidence selector (composite first; below threshold, fall back
// to the individual device/agent models; if none clears the threshold the
// flow is Unknown). The flows are encoded back-to-back into sc's row matrix
// by the three objectives' shared compiled encoder — raw wire values resolved
// through interned tables, no FieldValues maps, no string formatting — and
// each objective's compiled forest then evaluates the matrix. out[i] receives
// infos[i]'s prediction, so out must hold at least len(infos) slots.
// Predictions are byte-identical to the reference evaluator (features.Extract
// → Encoder.Transform → pointer-walk forest), which lives test-side in
// oracle_test.go and is pinned against this path by the golden-equivalence
// tests. A nil sc allocates temporaries (used by off-path callers like the
// shadow evaluator). Zero-allocation with a warm scratch, pinned by
// TestClassifyBatchZeroAlloc.
func (b *Bank) ClassifyBatch(prov fingerprint.Provider, tr fingerprint.Transport, infos []*features.HandshakeInfo, sc *ClassifyScratch, out []Prediction) error {
	if len(infos) == 0 {
		return nil
	}
	e := b.entry(prov, tr)
	if e == nil {
		return fmt.Errorf("pipeline: no models for %s/%s", prov, tr) // cold no-models error path
	}
	if sc == nil {
		sc = &ClassifyScratch{} // cold nil-scratch path for off-path callers
	}
	enc := e.platform.compiled
	stride := enc.Width()
	sc.rows = growFloats(sc.rows, len(infos)*stride)
	for i, info := range infos {
		enc.EncodeInto(sc.rows[i*stride:i*stride:(i+1)*stride], info, &sc.enc)
	}
	e.classifyRows(sc, len(infos), stride, out)
	return nil
}

// classifyRows runs the three objectives' compiled forests over an encoded
// row matrix and fills out[:n] with selector-applied predictions. Inside
// ClassifyBatch's zero-allocation pin.
func (e *bankEntry) classifyRows(sc *ClassifyScratch, n, stride int, out []Prediction) {
	rows := sc.rows[:n*stride]

	sc.proba = e.platform.cforest.PredictBatchInto(rows, stride, sc.proba)
	w := e.platform.cforest.NumClasses()
	for i := 0; i < n; i++ {
		proba := sc.proba[i*w : (i+1)*w]
		ci, conf := argmaxProba(proba)
		out[i] = Prediction{
			Platform:       e.platform.Classes[ci],
			PlatformConf:   conf,
			PlatformMargin: probaMargin(proba, ci, conf),
		}
	}

	sc.proba = e.device.cforest.PredictBatchInto(rows, stride, sc.proba)
	w = e.device.cforest.NumClasses()
	for i := 0; i < n; i++ {
		ci, conf := argmaxProba(sc.proba[i*w : (i+1)*w])
		out[i].Device = e.device.Classes[ci]
		out[i].DeviceConf = conf
	}

	sc.proba = e.agent.cforest.PredictBatchInto(rows, stride, sc.proba)
	w = e.agent.cforest.NumClasses()
	for i := 0; i < n; i++ {
		ci, conf := argmaxProba(sc.proba[i*w : (i+1)*w])
		out[i].Agent = e.agent.Classes[ci]
		out[i].AgentConf = conf
		out[i].applySelector()
	}
}

// argmaxProba returns the winning class index and probability with the same
// tie-breaking as RandomForest.PredictInto (first strict maximum wins).
func argmaxProba(proba []float64) (int, float64) {
	best, bestP := 0, -1.0
	for i, v := range proba {
		if v > bestP {
			best, bestP = i, v
		}
	}
	return best, bestP
}

// probaMargin is the gap between the winning class probability and the best
// runner-up. With a single-class model there is no runner-up and the margin
// equals the confidence (maximally decisive).
func probaMargin(proba []float64, best int, conf float64) float64 {
	second := -1.0
	for i, v := range proba {
		if i != best && v > second {
			second = v
		}
	}
	if second < 0 {
		return conf
	}
	return conf - second
}

// applySelector applies the §4.1 confidence selector to raw per-objective
// predictions, shared by the reference and compiled paths.
func (p *Prediction) applySelector() {
	switch {
	case p.PlatformConf >= ConfidenceThreshold:
		p.Status = Composite
		// Keep composite-consistent device/agent for downstream grouping.
		p.Device = DeviceOf(p.Platform)
		p.Agent = AgentOf(p.Platform)
	case p.DeviceConf >= ConfidenceThreshold || p.AgentConf >= ConfidenceThreshold:
		p.Status = Partial
		if p.DeviceConf < ConfidenceThreshold {
			p.Device = ""
		}
		if p.AgentConf < ConfidenceThreshold {
			p.Agent = ""
		}
	default:
		p.Status = Unknown
	}
}
