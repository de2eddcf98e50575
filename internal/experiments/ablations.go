package experiments

import (
	"fmt"

	"videoplat/internal/features"
	"videoplat/internal/fingerprint"
	"videoplat/internal/ml"
	"videoplat/internal/pipeline"
)

// AblationListEncoding compares the paper's positional fixed-length list
// encoding against a whole-list-as-one-token encoding (what coarse prior
// work like [28] does), on YouTube TCP platform classification.
func AblationListEncoding(c *Context) (*Report, error) {
	sc := Scenario{fingerprint.YouTube, fingerprint.TCP}
	values, labels, err := c.LabValues(sc)
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "Ablation", Title: "List encoding: positional vector vs whole-value token"}

	dPos, _, err := encodeDataset(false, nil, values, labels)
	if err != nil {
		return nil, err
	}
	resPos := ml.CrossValidate(c.forestFactory(20, 34), dPos, c.Folds, c.Seed)

	// Whole-value variant: every list attribute collapsed to one token.
	x := make([][]float64, len(values))
	vocab := map[string]map[string]int{}
	listLabels := []string{}
	for _, a := range features.ForTransport(false) {
		if a.Kind == features.List {
			listLabels = append(listLabels, a.Label)
			vocab[a.Label] = map[string]int{}
		}
	}
	scalarSubset := []string{}
	for _, a := range features.ForTransport(false) {
		if a.Kind != features.List {
			scalarSubset = append(scalarSubset, a.Label)
		}
	}
	encScalar, err := features.NewEncoder(false, scalarSubset)
	if err != nil {
		return nil, err
	}
	encScalar.Fit(values)
	for i, v := range values {
		row := encScalar.Transform(v)
		for _, ll := range listLabels {
			tok := fmt.Sprint(v.Lists[ll])
			id, ok := vocab[ll][tok]
			if !ok {
				id = len(vocab[ll]) + 1
				vocab[ll][tok] = id
			}
			row = append(row, float64(id))
		}
		x[i] = row
	}
	dWhole, err := ml.NewDataset(x, labels)
	if err != nil {
		return nil, err
	}
	resWhole := ml.CrossValidate(c.forestFactory(20, 34), dWhole, c.Folds, c.Seed)

	r.Printf("positional vectors: %.2f%%", resPos.Accuracy*100)
	r.Printf("whole-value tokens: %.2f%%", resWhole.Accuracy*100)
	r.Metric("positional", resPos.Accuracy)
	r.Metric("whole", resWhole.Accuracy)
	return r, nil
}

// AblationGrease compares GREASE normalization on vs off for YouTube TCP
// (Chromium flows draw a random GREASE value per flow; without
// normalization those random draws pollute the vocabularies).
func AblationGrease(c *Context) (*Report, error) {
	ds, err := c.LabDataset()
	if err != nil {
		return nil, err
	}
	sc := Scenario{fingerprint.YouTube, fingerprint.TCP}
	var normVals, rawVals []*features.FieldValues
	var labels []string
	for _, ft := range ds.Filter(sc.Provider, sc.Transport) {
		info, err := pipeline.ExtractTrace(ft)
		if err != nil {
			return nil, err
		}
		normVals = append(normVals, features.Extract(info))
		rawVals = append(rawVals, features.ExtractWithOptions(info, features.Options{KeepGrease: true}))
		labels = append(labels, ft.Label)
	}
	r := &Report{ID: "Ablation", Title: "GREASE normalization on vs off, YT TCP"}
	for _, v := range []struct {
		name string
		vals []*features.FieldValues
	}{{"normalized", normVals}, {"raw GREASE", rawVals}} {
		d, _, err := encodeDataset(false, nil, v.vals, labels)
		if err != nil {
			return nil, err
		}
		res := ml.CrossValidate(c.forestFactory(20, 34), d, c.Folds, c.Seed)
		r.Printf("%-12s %.2f%%", v.name, res.Accuracy*100)
		r.Metric(v.name, res.Accuracy)
	}
	return r, nil
}

// AblationConfidenceSelector compares the §4.1 selector (composite with
// device/agent fallback) against a composite-only policy, measuring how much
// partial platform information the fallback recovers on the open-set data.
func AblationConfidenceSelector(c *Context) (*Report, error) {
	ds, err := c.LabDataset()
	if err != nil {
		return nil, err
	}
	bank, err := pipeline.TrainBank(ds, pipeline.TrainConfig{Forest: ml.ForestConfig{
		NumTrees: c.Trees, MaxDepth: 20, MaxFeatures: 34, Seed: c.Seed}})
	if err != nil {
		return nil, err
	}
	open, err := c.OpenSetDataset()
	if err != nil {
		return nil, err
	}
	var composite, partial, unknown, partialUseful int
	var scratch pipeline.ClassifyScratch
	total := 0
	for _, ft := range open.Flows {
		info, err := pipeline.ExtractTrace(ft)
		if err != nil {
			return nil, err
		}
		pred, err := bank.ClassifyHandshake(ft.Provider, ft.Transport, info, &scratch)
		if err != nil {
			return nil, err
		}
		total++
		switch pred.Status {
		case pipeline.Composite:
			composite++
		case pipeline.Partial:
			partial++
			if (pred.Device != "" && pred.Device == pipeline.DeviceOf(ft.Label)) ||
				(pred.Agent != "" && pred.Agent == pipeline.AgentOf(ft.Label)) {
				partialUseful++
			}
		default:
			unknown++
		}
	}
	r := &Report{ID: "Ablation", Title: "Confidence selector: fallback vs composite-only (open set)"}
	r.Printf("flows: %d  composite: %d (%.1f%%)  partial: %d  unknown: %d",
		total, composite, pct(composite, total), partial, unknown)
	r.Printf("composite-only policy would reject %.1f%% of flows;", pct(partial+unknown, total))
	r.Printf("the fallback recovers correct partial info for %.1f%% of otherwise-rejected flows",
		pct(partialUseful, partial+unknown))
	r.Metric("composite_rate", float64(composite)/float64(total))
	r.Metric("partial_recovered", float64(partialUseful))
	r.Metric("rejected_composite_only", float64(partial+unknown)/float64(total))
	return r, nil
}

// AblationGlobalClassifier compares the per-provider classifier bank against
// one global classifier trained across all providers (TCP flows).
func AblationGlobalClassifier(c *Context) (*Report, error) {
	var allVals []*features.FieldValues
	var allLabels []string
	perProvider := map[fingerprint.Provider]float64{}
	r := &Report{ID: "Ablation", Title: "Per-provider bank vs one global classifier (TCP)"}
	for _, sc := range Scenarios() {
		if sc.Transport != fingerprint.TCP {
			continue
		}
		values, labels, err := c.LabValues(sc)
		if err != nil {
			return nil, err
		}
		d, _, err := encodeDataset(false, nil, values, labels)
		if err != nil {
			return nil, err
		}
		res := ml.CrossValidate(c.forestFactory(20, 34), d, c.Folds, c.Seed)
		perProvider[sc.Provider] = res.Accuracy
		allVals = append(allVals, values...)
		allLabels = append(allLabels, labels...)
	}
	dAll, _, err := encodeDataset(false, nil, allVals, allLabels)
	if err != nil {
		return nil, err
	}
	resAll := ml.CrossValidate(c.forestFactory(20, 34), dAll, c.Folds, c.Seed)

	var sum float64
	for _, prov := range fingerprint.AllProviders() { // not map order: the report is diffed
		acc, ok := perProvider[prov]
		if !ok {
			continue
		}
		r.Printf("per-provider %-8s %.2f%%", prov, acc*100)
		sum += acc
	}
	mean := sum / float64(len(perProvider))
	r.Printf("per-provider mean:    %.2f%%", mean*100)
	r.Printf("global classifier:    %.2f%%", resAll.Accuracy*100)
	r.Metric("per_provider_mean", mean)
	r.Metric("global", resAll.Accuracy)
	return r, nil
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}
