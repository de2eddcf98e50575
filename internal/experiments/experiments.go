// Package experiments regenerates every table and figure of the paper's
// evaluation (§3.3, §4.2–4.3, §5.2 and Appendices B–C) on the synthetic
// substrate. Each experiment returns a Report with the printable rows and a
// set of named metrics that the benchmark harness and EXPERIMENTS.md record
// against the paper's numbers.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"videoplat/internal/features"
	"videoplat/internal/fingerprint"
	"videoplat/internal/ml"
	"videoplat/internal/pipeline"
	"videoplat/internal/tracegen"
)

// Report is one regenerated table or figure.
type Report struct {
	ID      string
	Title   string
	Lines   []string
	Metrics map[string]float64
}

// Printf appends a formatted line.
func (r *Report) Printf(format string, args ...any) {
	r.Lines = append(r.Lines, fmt.Sprintf(format, args...))
}

// Metric records a named numeric result.
func (r *Report) Metric(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = map[string]float64{}
	}
	r.Metrics[name] = v
}

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", r.ID, r.Title)
	for _, l := range r.Lines {
		b.WriteString(l)
		b.WriteByte('\n')
	}
	return b.String()
}

// Scenario is one of the five evaluation scenarios of Tables 3–6.
type Scenario struct {
	Provider  fingerprint.Provider
	Transport fingerprint.Transport
}

// Name renders e.g. "YT (QUIC)".
func (s Scenario) Name() string {
	return fmt.Sprintf("%s (%s)", s.Provider.Abbrev(), strings.ToUpper(s.Transport.String()))
}

// Scenarios lists the five provider/transport combinations of Table 6.
func Scenarios() []Scenario {
	return []Scenario{
		{fingerprint.YouTube, fingerprint.QUIC},
		{fingerprint.YouTube, fingerprint.TCP},
		{fingerprint.Netflix, fingerprint.TCP},
		{fingerprint.Disney, fingerprint.TCP},
		{fingerprint.Amazon, fingerprint.TCP},
	}
}

// Context carries sizing knobs and caches the expensive artefacts (datasets
// and their extracted field values) across experiments.
type Context struct {
	// Scale shrinks the Table 1 dataset; 1.0 is the paper's full ~10k flows.
	Scale float64
	// Seed drives all generation deterministically.
	Seed uint64
	// Trees is the forest size for experiment models.
	Trees int
	// Folds for cross-validation (the paper uses 10).
	Folds int
	// OpenSetPerCombo is the open-set flows per (platform, provider,
	// transport) combination.
	OpenSetPerCombo int
	// CampusDays and CampusSessionsPerDay size the §5 simulation.
	CampusDays           int
	CampusSessionsPerDay int

	mu        sync.Mutex
	labDS     *tracegen.Dataset
	labBank   *pipeline.Bank
	openDS    *tracegen.Dataset
	labVals   map[Scenario]*scenarioData
	openVals  map[Scenario]*scenarioData
	openEvals []openSetEval
	campusRes *campusCache
}

type scenarioData struct {
	values []*features.FieldValues
	labels []string
}

// DefaultContext returns a context sized for a laptop-scale full run.
func DefaultContext() *Context {
	return &Context{Scale: 0.3, Seed: 1, Trees: 30, Folds: 10, OpenSetPerCombo: 20,
		CampusDays: 7, CampusSessionsPerDay: 1500}
}

// QuickContext returns a context sized for tests and benchmarks.
func QuickContext() *Context {
	return &Context{Scale: 0.06, Seed: 1, Trees: 12, Folds: 5, OpenSetPerCombo: 6,
		CampusDays: 2, CampusSessionsPerDay: 400}
}

func (c *Context) defaults() {
	if c.Scale == 0 {
		c.Scale = 0.3
	}
	if c.Trees == 0 {
		c.Trees = 30
	}
	if c.Folds == 0 {
		c.Folds = 10
	}
	if c.OpenSetPerCombo == 0 {
		c.OpenSetPerCombo = 20
	}
	if c.CampusDays == 0 {
		c.CampusDays = 7
	}
	if c.CampusSessionsPerDay == 0 {
		c.CampusSessionsPerDay = 1500
	}
}

// LabDataset renders (once) the Table 1 dataset at the context's scale.
func (c *Context) LabDataset() (*tracegen.Dataset, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.labDatasetLocked()
}

func (c *Context) labDatasetLocked() (*tracegen.Dataset, error) {
	c.defaults()
	if c.labDS == nil {
		g := tracegen.New(c.Seed)
		ds, err := g.LabDataset(c.Scale, fingerprint.Options{})
		if err != nil {
			return nil, err
		}
		c.labDS = ds
	}
	return c.labDS, nil
}

// bank trains (once) the Fig 4 classifier bank on the lab dataset: forests
// of c.Trees trees at the paper's depth 20 and 34 candidate attributes per
// split. The confidence-selector ablation, the §5 campus simulation and the
// attribute-usage table all read it.
func (c *Context) bank() (*pipeline.Bank, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.labBank == nil {
		ds, err := c.labDatasetLocked()
		if err != nil {
			return nil, err
		}
		b, err := pipeline.TrainBank(ds, pipeline.TrainConfig{Forest: ml.ForestConfig{
			NumTrees: c.Trees, MaxDepth: 20, MaxFeatures: 34, Seed: c.Seed}})
		if err != nil {
			return nil, err
		}
		c.labBank = b
	}
	return c.labBank, nil
}

// OpenSetDataset renders (once) the §4.3.2 open-set dataset.
func (c *Context) OpenSetDataset() (*tracegen.Dataset, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.openSetDatasetLocked()
}

func (c *Context) openSetDatasetLocked() (*tracegen.Dataset, error) {
	c.defaults()
	if c.openDS == nil {
		g := tracegen.New(c.Seed + 0x05e2)
		ds, err := g.OpenSetDataset(c.OpenSetPerCombo)
		if err != nil {
			return nil, err
		}
		c.openDS = ds
	}
	return c.openDS, nil
}

// LabValues extracts (once, via the packet path) the field values of a
// scenario's lab flows.
func (c *Context) LabValues(sc Scenario) ([]*features.FieldValues, []string, error) {
	return c.scenarioValues(sc, c.labDatasetLocked, &c.labVals)
}

// OpenSetValues extracts (once) the field values of a scenario's open-set
// flows.
func (c *Context) OpenSetValues(sc Scenario) ([]*features.FieldValues, []string, error) {
	return c.scenarioValues(sc, c.openSetDatasetLocked, &c.openVals)
}

// scenarioValues is LabValues and OpenSetValues: the scenario's field
// values from the dataset datasetLocked renders, extracted once and cached
// in *cache. It holds c.mu throughout, so concurrent callers extract a
// scenario once.
func (c *Context) scenarioValues(sc Scenario, datasetLocked func() (*tracegen.Dataset, error), cache *map[Scenario]*scenarioData) ([]*features.FieldValues, []string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d, ok := (*cache)[sc]; ok {
		return d.values, d.labels, nil
	}
	ds, err := datasetLocked()
	if err != nil {
		return nil, nil, err
	}
	d, err := extractScenario(ds, sc)
	if err != nil {
		return nil, nil, err
	}
	if *cache == nil {
		*cache = map[Scenario]*scenarioData{}
	}
	(*cache)[sc] = d
	return d.values, d.labels, nil
}

func extractScenario(ds *tracegen.Dataset, sc Scenario) (*scenarioData, error) {
	d := &scenarioData{}
	for _, ft := range ds.Filter(sc.Provider, sc.Transport) {
		info, err := pipeline.ExtractTrace(ft)
		if err != nil {
			return nil, err
		}
		d.values = append(d.values, features.Extract(info))
		d.labels = append(d.labels, ft.Label)
	}
	return d, nil
}

// forestFactory builds the experiment forest configuration.
func (c *Context) forestFactory(maxDepth, maxFeatures int) func() ml.Classifier {
	trees := c.Trees
	seed := c.Seed
	return func() ml.Classifier {
		return &ml.RandomForest{Config: ml.ForestConfig{
			NumTrees: trees, MaxDepth: maxDepth, MaxFeatures: maxFeatures, Seed: seed}}
	}
}

// encodeDataset fits an encoder on values and returns the ml dataset.
func encodeDataset(quic bool, subset []string, values []*features.FieldValues, labels []string) (*ml.Dataset, *features.Encoder, error) {
	enc, err := features.NewEncoder(quic, subset)
	if err != nil {
		return nil, nil, err
	}
	enc.Fit(values)
	d, err := ml.NewDataset(enc.TransformAll(values), labels)
	if err != nil {
		return nil, nil, err
	}
	return d, enc, nil
}

// relabelFor maps labels for an objective, as TrainBank does.
func relabelFor(obj pipeline.Objective, labels []string) []string {
	out := make([]string, len(labels))
	for i, l := range labels {
		out[i] = obj.Label(l)
	}
	return out
}

// importance is each applicable Table 2 attribute's normalized information
// gain for labels, over an encoder fitted on values.
func importance(quic bool, values []*features.FieldValues, labels []string) (map[string]float64, error) {
	d, enc, err := encodeDataset(quic, nil, values, labels)
	if err != nil {
		return nil, err
	}
	gains := ml.InformationGain(d, 64)
	attrCols := map[string][]int{}
	for _, a := range features.ForTransport(quic) {
		attrCols[a.Label] = enc.AttrColumns(a.Label)
	}
	return ml.AttributeImportance(gains, attrCols), nil
}

// rankAttributes orders the applicable Table 2 attributes by normalized
// information gain for the platform objective (used by Fig 6(a)'s
// "number of attributes" axis and Table 5's subsets).
func rankAttributes(quic bool, values []*features.FieldValues, labels []string) ([]string, map[string]float64, error) {
	imp, err := importance(quic, values, labels)
	if err != nil {
		return nil, nil, err
	}
	ranked := make([]string, 0, len(imp))
	for label := range imp {
		ranked = append(ranked, label)
	}
	sort.Slice(ranked, func(i, j int) bool {
		if imp[ranked[i]] != imp[ranked[j]] {
			return imp[ranked[i]] > imp[ranked[j]]
		}
		return ranked[i] < ranked[j]
	})
	return ranked, imp, nil
}
