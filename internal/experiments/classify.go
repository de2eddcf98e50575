package experiments

import (
	"fmt"
	"strings"

	"videoplat/internal/features"
	"videoplat/internal/fingerprint"
	"videoplat/internal/ml"
	"videoplat/internal/pipeline"
)

// Fig5 regenerates the attribute-importance bars: normalized information
// gain per Table 2 attribute for YouTube flows over QUIC (a) and TCP (b),
// for each of the three classification objectives.
func Fig5(c *Context) ([]*Report, error) {
	var out []*Report
	for _, sc := range []Scenario{
		{fingerprint.YouTube, fingerprint.QUIC},
		{fingerprint.YouTube, fingerprint.TCP},
	} {
		r, err := attributeImportance(c, sc, "Fig 5")
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// Fig14 regenerates the Appendix C importance plots for Netflix, Disney+
// and Amazon (TCP).
func Fig14(c *Context) ([]*Report, error) {
	var out []*Report
	for _, sc := range []Scenario{
		{fingerprint.Netflix, fingerprint.TCP},
		{fingerprint.Disney, fingerprint.TCP},
		{fingerprint.Amazon, fingerprint.TCP},
	} {
		r, err := attributeImportance(c, sc, "Fig 14")
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// AttributesRead lists, for each (provider, transport) entry of the bank,
// how many of its Table 2 attributes any split of its three forests reads
// and which ones none does: the serving encoder resolves only the former
// (features.Compile's live set), so the latter cost nothing per flow.
func AttributesRead(c *Context) (*Report, error) {
	bank, err := c.bank()
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "Attributes", Title: "Table 2 attributes the bank's three forests read, per entry"}
	r.Printf("%-10s %4s %3s  %s", "entry", "read", "of", "never read")
	for _, sc := range Scenarios() {
		var enc *features.Encoder
		var read []bool
		for _, obj := range []pipeline.Objective{pipeline.PlatformObjective, pipeline.DeviceObjective, pipeline.AgentObjective} {
			m := bank.Model(sc.Provider, sc.Transport, obj)
			if m == nil {
				return nil, fmt.Errorf("experiments: the bank has no %s model for %s", obj, sc.Name())
			}
			enc = m.Encoder
			if read == nil {
				read = make([]bool, len(enc.Attrs))
			}
			for _, f := range m.CompiledForest().SplitFeatures() {
				read[enc.Columns()[f].Attr] = true
			}
		}
		n := 0
		var never []string
		for ai, a := range enc.Attrs {
			if read[ai] {
				n++
			} else {
				never = append(never, a.Label)
			}
		}
		r.Printf("%-10s %4d %3d  %s", sc.Name(), n, len(enc.Attrs), strings.Join(never, " "))
		r.Metric(sc.Name()+" read", float64(n))
	}
	return r, nil
}

func attributeImportance(c *Context, sc Scenario, id string) (*Report, error) {
	values, labels, err := c.LabValues(sc)
	if err != nil {
		return nil, err
	}
	quic := sc.Transport == fingerprint.QUIC
	r := &Report{ID: id, Title: fmt.Sprintf("Attribute importance (normalized info gain), %s", sc.Name())}

	imps := map[pipeline.Objective]map[string]float64{}
	for _, obj := range []pipeline.Objective{pipeline.PlatformObjective, pipeline.DeviceObjective, pipeline.AgentObjective} {
		if imps[obj], err = importance(quic, values, relabelFor(obj, labels)); err != nil {
			return nil, err
		}
	}

	rate := func(v float64) string {
		switch {
		case v > 0.2:
			return "high"
		case v >= 0.1:
			return "med"
		default:
			return "low"
		}
	}
	r.Printf("%-6s %-42s %8s %8s %8s  %s", "label", "field", "platform", "device", "agent", "rating(plat)")
	highAll, lowAll := 0, 0
	for _, a := range features.ForTransport(quic) {
		p := imps[pipeline.PlatformObjective][a.Label]
		d := imps[pipeline.DeviceObjective][a.Label]
		g := imps[pipeline.AgentObjective][a.Label]
		r.Printf("%-6s %-42s %8.3f %8.3f %8.3f  %s", a.Label, a.Name, p, d, g, rate(p))
		r.Metric("gain_platform_"+a.Label, p)
		r.Metric("gain_device_"+a.Label, d)
		r.Metric("gain_agent_"+a.Label, g)
		if p > 0.2 && d > 0.2 && g > 0.2 {
			highAll++
		}
		if p < 0.1 && d < 0.1 && g < 0.1 {
			lowAll++
		}
	}
	r.Printf("attributes high for all objectives: %d (paper YT QUIC: 17); low for all: %d (paper: 11)",
		highAll, lowAll)
	r.Metric("high_all", float64(highAll))
	r.Metric("low_all", float64(lowAll))
	return r, nil
}

// Fig6a regenerates the random-forest hyperparameter grid for YouTube QUIC:
// cross-validated accuracy over (number of attributes × maximum tree depth).
func Fig6a(c *Context) (*Report, error) {
	sc := Scenario{fingerprint.YouTube, fingerprint.QUIC}
	values, labels, err := c.LabValues(sc)
	if err != nil {
		return nil, err
	}
	ranked, _, err := rankAttributes(true, values, labels)
	if err != nil {
		return nil, err
	}

	depths := []int{5, 10, 20, 30, 45}
	attrCounts := []int{5, 10, 20, 30, 34, 42, 47}
	r := &Report{ID: "Fig 6a", Title: "RF grid: accuracy vs #attributes × max depth, YT QUIC"}
	header := fmt.Sprintf("%8s", "#attrs")
	for _, d := range depths {
		header += fmt.Sprintf("  depth=%2d", d)
	}
	r.Lines = append(r.Lines, header)

	var bestAcc float64
	var bestN, bestD int
	for _, n := range attrCounts {
		if n > len(ranked) {
			n = len(ranked)
		}
		subset := ranked[:n]
		d, _, err := encodeDataset(true, subset, values, labels)
		if err != nil {
			return nil, err
		}
		row := fmt.Sprintf("%8d", n)
		for _, depth := range depths {
			res := ml.CrossValidate(c.forestFactory(depth, 0), d, c.Folds, c.Seed)
			row += fmt.Sprintf("  %7.2f%%", res.Accuracy*100)
			if res.Accuracy > bestAcc {
				bestAcc, bestN, bestD = res.Accuracy, n, depth
			}
		}
		r.Lines = append(r.Lines, row)
	}
	r.Printf("best: %.2f%% at %d attributes, depth %d (paper: 96.4%% at 34 attributes, depth 20)",
		bestAcc*100, bestN, bestD)
	r.Metric("best_accuracy", bestAcc)
	r.Metric("best_attrs", float64(bestN))
	r.Metric("best_depth", float64(bestD))
	return r, nil
}

// Fig6bcd regenerates the confusion matrices of the selected model for the
// three objectives on YouTube QUIC.
func Fig6bcd(c *Context) ([]*Report, error) {
	sc := Scenario{fingerprint.YouTube, fingerprint.QUIC}
	values, labels, err := c.LabValues(sc)
	if err != nil {
		return nil, err
	}
	var out []*Report
	for _, obj := range []pipeline.Objective{pipeline.PlatformObjective, pipeline.DeviceObjective, pipeline.AgentObjective} {
		d, _, err := encodeDataset(true, nil, values, relabelFor(obj, labels))
		if err != nil {
			return nil, err
		}
		res := ml.CrossValidate(c.forestFactory(20, 34), d, c.Folds, c.Seed)
		r := &Report{ID: "Fig 6b-d", Title: fmt.Sprintf("Confusion matrix, %s, YT QUIC", obj)}
		r.Printf("accuracy: %.2f%%", res.Accuracy*100)
		r.Lines = append(r.Lines, res.Confusion.String())
		r.Metric("accuracy", res.Accuracy)
		for i, cl := range res.Confusion.Classes {
			r.Metric("recall_"+cl, res.Confusion.Recall(i))
		}
		out = append(out, r)
	}
	return out, nil
}

// AlgoComparison regenerates §4.3.1's three-way comparison: random forest
// vs MLP vs KNN for YouTube QUIC user-platform classification.
func AlgoComparison(c *Context) (*Report, error) {
	sc := Scenario{fingerprint.YouTube, fingerprint.QUIC}
	values, labels, err := c.LabValues(sc)
	if err != nil {
		return nil, err
	}
	d, _, err := encodeDataset(true, nil, values, labels)
	if err != nil {
		return nil, err
	}
	r := &Report{ID: "§4.3.1", Title: "Algorithm comparison, YT QUIC user platform"}
	algos := []struct {
		name    string
		factory func() ml.Classifier
		paper   float64
	}{
		{"random forest", c.forestFactory(20, 34), 0.964},
		{"MLP", func() ml.Classifier {
			return &ml.MLP{Config: ml.MLPConfig{Hidden: []int{64, 32}, Epochs: 40, Seed: c.Seed}}
		}, 0.651},
		{"KNN", func() ml.Classifier { return &ml.KNN{} }, 0.691},
	}
	for _, a := range algos {
		res := ml.CrossValidate(a.factory, d, c.Folds, c.Seed)
		r.Printf("%-14s %6.2f%%   (paper: %.1f%%)", a.name, res.Accuracy*100, a.paper*100)
		r.Metric(a.name, res.Accuracy)
	}
	return r, nil
}

// Table5 regenerates the attribute-subset study: accuracy when excluding
// low-importance attributes by preprocessing cost tier.
func Table5(c *Context) (*Report, error) {
	sc := Scenario{fingerprint.YouTube, fingerprint.QUIC}
	values, labels, err := c.LabValues(sc)
	if err != nil {
		return nil, err
	}
	_, imp, err := rankAttributes(true, values, labels)
	if err != nil {
		return nil, err
	}

	subsetFor := func(dropCosts map[features.Cost]bool) []string {
		var subset []string
		for _, a := range features.ForTransport(true) {
			lowImportance := imp[a.Label] < 0.1
			if lowImportance && dropCosts[a.Cost] {
				continue
			}
			subset = append(subset, a.Label)
		}
		return subset
	}

	rows := []struct {
		name  string
		drop  map[features.Cost]bool
		paper [3]float64 // platform, device, agent
	}{
		{"full attribute set", map[features.Cost]bool{}, [3]float64{0.964, 0.97, 0.95}},
		{"drop low-imp high-cost", map[features.Cost]bool{features.High: true},
			[3]float64{0.933, 0.972, 0.946}},
		{"drop low-imp high+medium", map[features.Cost]bool{features.High: true, features.Medium: true},
			[3]float64{0.930, 0.972, 0.928}},
		{"drop all low-importance", map[features.Cost]bool{features.High: true, features.Medium: true, features.Low: true},
			[3]float64{0.928, 0.971, 0.929}},
	}
	r := &Report{ID: "Table 5", Title: "Accuracy with attribute subsets, YT QUIC"}
	r.Printf("%-28s %9s %9s %9s  (#attrs)", "subset", "platform", "device", "agent")
	for _, row := range rows {
		subset := subsetFor(row.drop)
		var accs [3]float64
		for oi, obj := range []pipeline.Objective{pipeline.PlatformObjective, pipeline.DeviceObjective, pipeline.AgentObjective} {
			d, _, err := encodeDataset(true, subset, values, relabelFor(obj, labels))
			if err != nil {
				return nil, err
			}
			res := ml.CrossValidate(c.forestFactory(20, 0), d, c.Folds, c.Seed)
			accs[oi] = res.Accuracy
		}
		r.Printf("%-28s %8.2f%% %8.2f%% %8.2f%%  (%d)   paper: %.1f/%.1f/%.1f%%",
			row.name, accs[0]*100, accs[1]*100, accs[2]*100, len(subset),
			row.paper[0]*100, row.paper[1]*100, row.paper[2]*100)
		r.Metric(row.name+"/platform", accs[0])
		r.Metric(row.name+"/device", accs[1])
		r.Metric(row.name+"/agent", accs[2])
	}
	return r, nil
}
