package experiments

import (
	"fmt"

	"videoplat/internal/fingerprint"
	"videoplat/internal/ml"
	"videoplat/internal/pipeline"
)

// openSetEval trains on the lab dataset and evaluates on the version-drifted
// open-set dataset, per scenario and objective — the protocol behind
// Tables 3 and 4.
type openSetEval struct {
	scenario  Scenario
	objective pipeline.Objective
	result    *ml.EvalResult
}

func (c *Context) openSetResults() ([]openSetEval, error) {
	c.mu.Lock()
	if c.openEvals != nil {
		out := c.openEvals
		c.mu.Unlock()
		return out, nil
	}
	c.mu.Unlock()
	var out []openSetEval
	for _, sc := range Scenarios() {
		trainVals, trainLabels, err := c.LabValues(sc)
		if err != nil {
			return nil, err
		}
		testVals, testLabels, err := c.OpenSetValues(sc)
		if err != nil {
			return nil, err
		}
		quic := sc.Transport == fingerprint.QUIC
		for _, obj := range []pipeline.Objective{pipeline.PlatformObjective, pipeline.DeviceObjective, pipeline.AgentObjective} {
			train, enc, err := encodeDataset(quic, nil, trainVals, relabelFor(obj, trainLabels))
			if err != nil {
				return nil, err
			}
			forest := c.forestFactory(20, 34)()
			forest.Fit(train)

			testX := enc.TransformAll(testVals)
			test, err := ml.NewDataset(testX, relabelFor(obj, testLabels))
			if err != nil {
				return nil, err
			}
			res := ml.EvaluateTransfer(forest, train.Classes, test)
			out = append(out, openSetEval{sc, obj, res})
		}
	}
	c.mu.Lock()
	c.openEvals = out
	c.mu.Unlock()
	return out, nil
}

// Table3 regenerates the open-set accuracy table: three objectives per
// provider (YouTube split by transport).
func Table3(c *Context) (*Report, error) {
	evals, err := c.openSetResults()
	if err != nil {
		return nil, err
	}
	paper := map[string]float64{
		"YT (TCP)/user platform": 0.987, "YT (QUIC)/user platform": 0.945,
		"YT (TCP)/device type": 0.991, "YT (QUIC)/device type": 0.984,
		"YT (TCP)/software agent": 0.966, "YT (QUIC)/software agent": 0.954,
		"NF (TCP)/user platform": 0.912, "NF (TCP)/device type": 0.924, "NF (TCP)/software agent": 0.906,
		"DN (TCP)/user platform": 0.909, "DN (TCP)/device type": 0.916, "DN (TCP)/software agent": 0.886,
		"AP (TCP)/user platform": 0.882, "AP (TCP)/device type": 0.894, "AP (TCP)/software agent": 0.879,
	}
	r := &Report{ID: "Table 3", Title: "Open-set accuracy per provider and objective"}
	r.Printf("%-12s %-16s %9s %9s", "provider", "objective", "ours", "paper")
	for _, e := range evals {
		key := fmt.Sprintf("%s/%s", e.scenario.Name(), e.objective)
		r.Printf("%-12s %-16s %8.2f%% %8.1f%%", e.scenario.Name(), e.objective,
			e.result.Accuracy*100, paper[key]*100)
		r.Metric(key, e.result.Accuracy)
	}
	return r, nil
}

// Table4 regenerates the confidence table: median prediction confidence of
// correct vs incorrect open-set classifications.
func Table4(c *Context) (*Report, error) {
	evals, err := c.openSetResults()
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "Table 4", Title: "Median confidence of correct vs incorrect open-set predictions"}
	r.Printf("%-12s %-16s %18s %18s", "provider", "objective", "med(correct) (n)", "med(incorrect) (n)")
	for _, e := range evals {
		cc, ic := e.result.MedianConfidence()
		r.Printf("%-12s %-16s %18s %18s", e.scenario.Name(), e.objective,
			medianCell(cc, len(e.result.CorrectConf)), medianCell(ic, len(e.result.IncorrectConf)))
		key := fmt.Sprintf("%s/%s", e.scenario.Name(), e.objective)
		r.Metric(key+"/correct", cc)
		r.Metric(key+"/incorrect", ic)
	}
	r.Printf("expected shape: correct ≫ incorrect everywhere (paper: >88%% vs <70%%)")
	return r, nil
}

// medianCell prints a median confidence over n predictions, and "—" for a
// side with none.
func medianCell(median float64, n int) string {
	if n == 0 {
		return "— (0)"
	}
	return fmt.Sprintf("%.1f%% (%d)", median*100, n)
}
