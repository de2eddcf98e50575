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

// Model is one trained classifier: the forest and class universe of one
// objective, the fitted encoder of the bank entry it belongs to, and the
// compiled serving forms of both, lowered once when the bank that holds the
// model is built (Bank.buildIndex). The three models of an entry share one
// Encoder and one compiled encoder.
type Model struct {
	Encoder *features.Encoder
	Forest  *ml.RandomForest
	Classes []string

	compiled *features.CompiledEncoder
	cforest  *ml.CompiledForest
}

// Compiled returns the model's serving-path compiled encoder, the one its
// bank entry shares. It encodes only the columns the entry's three forests
// split on and leaves the rest zero, so its rows feed those forests, not a
// reader of other columns. Never nil for a model of a bank TrainBank or
// UnmarshalBinary returned.
func (m *Model) Compiled() *features.CompiledEncoder { return m.compiled }

// CompiledForest returns the model's serving-path compiled forest (flat node
// arrays). Never nil for a model of a bank TrainBank or UnmarshalBinary
// returned.
func (m *Model) CompiledForest() *ml.CompiledForest { return m.cforest }

// Bank is the classifier bank of Fig 4: per provider and transport, one
// entry (YouTube has both TCP and QUIC entries, so a full bank holds 5
// entries and 15 models; the paper counts 12 classifiers by provider ×
// objective).
type Bank struct {
	Config ml.ForestConfig
	// Version is the registry identity of this bank (e.g. "v0003"), stamped
	// by internal/registry when the bank is stored and carried through
	// serialization, so classifications and exports stay attributable.
	// Empty for ad-hoc banks that never went through a registry.
	Version string

	// entries is the bank's one index. Built by TrainBank or UnmarshalBinary
	// and compiled by buildIndex; read-only afterwards.
	entries map[entryKey]*bankEntry
}

type entryKey struct {
	Provider  fingerprint.Provider
	Transport fingerprint.Transport
}

// bankEntry is one provider's value-mapped Table 2 attributes over one
// transport (§4.2.1) and the three classifiers they feed (§4.1): one fitted
// encoder, its compiled form, and the platform, device and agent models.
type bankEntry struct {
	enc                     *features.Encoder
	compiled                *features.CompiledEncoder
	platform, device, agent *Model
}

// objectives returns the entry's models indexed by Objective.
func (e *bankEntry) objectives() [3]*Model {
	return [3]*Model{e.platform, e.device, e.agent}
}

// entry returns the bank entry for a (provider, transport), or nil.
func (b *Bank) entry(prov fingerprint.Provider, tr fingerprint.Transport) *bankEntry {
	return b.entries[entryKey{prov, tr}]
}

// buildIndex lowers every entry into its compiled serving forms: each
// model's forest, then the entry's encoder once, pointed at by all three of
// its models and live only in the columns some split of those three forests
// reads — the last step of TrainBank and UnmarshalBinary, so a bank that
// exists can be served: there is no uncompiled path to fall back to. It
// fails, naming the entry or model, when an encoder or forest cannot compile.
func (b *Bank) buildIndex() error {
	for key, e := range b.entries {
		var err error
		live := make([]bool, e.enc.Width())
		for obj, m := range e.objectives() {
			if m.cforest, err = ml.CompileForest(m.Forest, len(live)); err != nil {
				return fmt.Errorf("pipeline: compiling %s/%s/%s: %w", key.Provider, key.Transport, Objective(obj), err)
			}
			for _, f := range m.cforest.SplitFeatures() {
				live[f] = true
			}
		}
		if e.compiled, err = features.Compile(e.enc, live); err != nil {
			return fmt.Errorf("pipeline: compiling %s/%s encoder: %w", key.Provider, key.Transport, err)
		}
		for _, m := range e.objectives() {
			m.Encoder, m.compiled = e.enc, e.compiled
		}
	}
	return nil
}

// TrainConfig controls bank training. Each entry encodes every attribute
// applicable to its transport, the deployed configuration.
type TrainConfig struct {
	Forest ml.ForestConfig
}

// DefaultForestConfig mirrors the paper's selected hyperparameters:
// depth 20 with 34 candidate attributes per split performed best in Fig 6(a).
func DefaultForestConfig() ml.ForestConfig {
	return ml.ForestConfig{NumTrees: 40, MaxDepth: 20, MaxFeatures: 34, Seed: 1}
}

// TrainBank trains one entry for every (provider, transport) with data in
// the dataset: one encoder fitted and applied once, and the three objective
// forests fitted on the matrix it produced.
func TrainBank(ds *tracegen.Dataset, cfg TrainConfig) (*Bank, error) {
	if cfg.Forest.NumTrees == 0 {
		cfg.Forest = DefaultForestConfig()
	}
	b := &Bank{Config: cfg.Forest, entries: map[entryKey]*bankEntry{}}

	type group struct {
		values []*features.FieldValues
		labels []string
	}
	groups := map[entryKey]*group{}
	for _, ft := range ds.Flows {
		info, err := ExtractTrace(ft)
		if err != nil {
			return nil, err
		}
		v := features.Extract(info)
		k := entryKey{ft.Provider, ft.Transport}
		g := groups[k]
		if g == nil {
			g = &group{}
			groups[k] = g
		}
		g.values = append(g.values, v)
		g.labels = append(g.labels, ft.Label)
	}

	for k, g := range groups {
		enc, err := features.NewEncoder(k.Transport == fingerprint.QUIC, nil)
		if err != nil {
			return nil, fmt.Errorf("pipeline: training %s/%s: %w", k.Provider, k.Transport, err)
		}
		enc.Fit(g.values)
		x := enc.TransformAll(g.values)
		var ms [3]*Model
		for obj := range ms {
			if ms[obj], err = trainOne(x, g.labels, Objective(obj), cfg.Forest); err != nil {
				return nil, fmt.Errorf("pipeline: training %s/%s/%s: %w", k.Provider, k.Transport, Objective(obj), err)
			}
		}
		b.entries[k] = &bankEntry{enc: enc, platform: ms[PlatformObjective], device: ms[DeviceObjective], agent: ms[AgentObjective]}
	}
	if err := b.buildIndex(); err != nil {
		return nil, err
	}
	return b, nil
}

// trainOne fits one objective's forest on an entry's encoded matrix x, which
// it only reads.
func trainOne(x [][]float64, labels []string, obj Objective, cfg ml.ForestConfig) (*Model, error) {
	objLabels := make([]string, len(labels))
	for i, l := range labels {
		objLabels[i] = obj.Label(l)
	}
	d, err := ml.NewDataset(x, objLabels)
	if err != nil {
		return nil, err
	}
	forest := &ml.RandomForest{Config: cfg}
	forest.Fit(d)
	return &Model{Forest: forest, Classes: d.Classes}, nil
}

// Label maps a composite platform label to the class this objective
// predicts: the label itself, its device type (DeviceOf) or its software
// agent (AgentOf). It is how a bank's training labels are made, and how
// anything that trains or scores against one must make them.
func (o Objective) Label(platform string) string {
	switch o {
	case DeviceObjective:
		return DeviceOf(platform)
	case AgentObjective:
		return AgentOf(platform)
	default:
		return platform
	}
}

// Model returns the trained model for a key, or nil.
func (b *Bank) Model(prov fingerprint.Provider, tr fingerprint.Transport, obj Objective) *Model {
	e := b.entry(prov, tr)
	if e == nil || obj > AgentObjective {
		return nil
	}
	return e.objectives()[obj]
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
	for _, e := range b.entries {
		for _, m := range e.objectives() {
			fp.Models++
			fp.CompiledModels++
			fp.Nodes += m.cforest.NumNodes()
			fp.Bytes += m.cforest.Bytes()
		}
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
// The selector is a cascade: the composite platform model answers first, and
// the device-type and software-agent models are consulted only when its
// confidence falls below ConfidenceThreshold. DeviceConf and AgentConf are
// those fallback models' confidences, zero when Status is Composite, because
// §4.1 never consults them then; a composite prediction's Device and Agent
// are DeviceOf and AgentOf its Platform.
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

// label names what the selector decided, as a /trace span reports it: the
// platform label when composite; for a partial prediction the confident half,
// or both halves joined by "/" when the device and agent models were each
// confident and the platform model was not; "unknown" when nothing was.
func (p Prediction) label() string {
	switch {
	case p.Status == Composite:
		return p.Platform
	case p.Status == Unknown:
		return "unknown"
	case p.Agent == "":
		return p.Device
	case p.Device == "":
		return p.Agent
	}
	return p.Device + "/" + p.Agent
}

// ClassifyScratch holds one worker's reusable classification buffers: the
// encoded row, the forest probability buffer and the compiled encoder's
// extension-walking scratch. Each pipeline (and thus each shard) owns one, so
// the steady-state encode+predict path performs no allocations. The zero
// value is ready to use; not safe for concurrent use.
type ClassifyScratch struct {
	row   []float64
	proba []float64
	enc   features.EncodeScratch
}

// ClassifyHandshake is the bank's one classifier — serving, experiments and
// the campus simulation all answer through it. It encodes one assembled
// handshake of a (provider, transport) into one row through the entry's
// compiled encoder — raw wire values resolved through interned tables, no
// FieldValues maps, no string formatting — and runs the §4.1 cascade over
// that row: the platform forest answers first, and only below
// ConfidenceThreshold do the device and agent forests walk the same row; if
// none clears the threshold the flow is Unknown.
// Predictions are byte-identical to the reference evaluator (features.Extract
// → Encoder.Transform → the forest's reference walk), which lives test-side in
// oracle_test.go and is pinned against this path by the golden-equivalence
// tests. A nil sc allocates temporaries (used by off-path callers like the
// shadow evaluator). Zero-allocation with a warm scratch, pinned by
// TestClassifyHandshakeZeroAlloc.
func (b *Bank) ClassifyHandshake(prov fingerprint.Provider, tr fingerprint.Transport, info *features.HandshakeInfo, sc *ClassifyScratch) (Prediction, error) {
	e := b.entry(prov, tr)
	if e == nil {
		return Prediction{}, fmt.Errorf("pipeline: no models for %s/%s", prov, tr) // cold no-models error path
	}
	if sc == nil {
		sc = &ClassifyScratch{} // cold nil-scratch path for off-path callers
	}
	sc.row = e.compiled.EncodeInto(sc.row, info, &sc.enc)
	ci, conf := e.platform.cforest.PredictInto(sc.row, &sc.proba)
	p := Prediction{
		Platform:       e.platform.Classes[ci],
		PlatformConf:   conf,
		PlatformMargin: probaMargin(sc.proba, ci, conf),
	}
	if conf < ConfidenceThreshold {
		ci, conf = e.device.cforest.PredictInto(sc.row, &sc.proba)
		p.Device, p.DeviceConf = e.device.Classes[ci], conf
		ci, conf = e.agent.cforest.PredictInto(sc.row, &sc.proba)
		p.Agent, p.AgentConf = e.agent.Classes[ci], conf
	}
	p.applySelector()
	return p, nil
}

// ClassifyBatch classifies the handshakes of one (provider, transport) with
// ClassifyHandshake, one row per flow, over one scratch: out[i] receives
// infos[i]'s prediction, so out must hold at least len(infos) slots.
// Zero-allocation with a warm scratch, pinned by TestClassifyBatchZeroAlloc.
func (b *Bank) ClassifyBatch(prov fingerprint.Provider, tr fingerprint.Transport, infos []*features.HandshakeInfo, sc *ClassifyScratch, out []Prediction) error {
	if sc == nil {
		sc = &ClassifyScratch{} // cold nil-scratch path: one scratch for the whole batch
	}
	for i, info := range infos {
		p, err := b.ClassifyHandshake(prov, tr, info, sc)
		if err != nil {
			return err
		}
		out[i] = p
	}
	return nil
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
