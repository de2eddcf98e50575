package experiments

import (
	"fmt"
	"unicode/utf8"

	"videoplat/internal/baselines"
	"videoplat/internal/fingerprint"
	"videoplat/internal/ml"
)

// paperTable6 holds the paper's accuracies per technique per scenario, in
// Scenarios() order (YT QUIC, YT TCP, NF, DN, AP). -1 marks a dash.
var paperTable6 = map[string][5]float64{
	"Ours": {0.945, 0.987, 0.912, 0.909, 0.882},
	"[6]":  {0.901, 0.975, 0.840, 0.828, 0.803},
	"[14]": {0.940, 0.968, 0.860, 0.801, 0.841},
	"[28]": {0.681, 0.951, 0.827, 0.831, 0.790},
	"[55]": {-1, -1, -1, -1, -1},
	"[53]": {0.113, 0.510, 0.534, 0.565, 0.381},
	"[40]": {-1, -1, -1, -1, -1},
}

// Table6 regenerates the benchmarking table: our method against the six
// prior techniques across the five scenarios, under a common random-forest
// protocol with k-fold cross-validation. Each row is followed by the
// paper's accuracies for it.
func Table6(c *Context) (*Report, error) {
	r := &Report{ID: "Table 6", Title: "Ours vs six prior techniques (user platform accuracy)"}
	techs := baselines.All()
	// The method column is the widest label plus one space.
	width := 0
	for _, tech := range techs {
		width = max(width, utf8.RuneCountInString(methodLabel(tech)))
	}
	width++
	header := padRight("method", width)
	for _, sc := range Scenarios() {
		header += "  " + sc.Name()
	}
	r.Lines = append(r.Lines, header)

	// Our method: full applicable attribute set.
	oursRow := padRight("Ours", width)
	for _, sc := range Scenarios() {
		values, labels, err := c.LabValues(sc)
		if err != nil {
			return nil, err
		}
		d, _, err := encodeDataset(sc.Transport == fingerprint.QUIC, nil, values, labels)
		if err != nil {
			return nil, err
		}
		res := ml.CrossValidate(c.forestFactory(20, 34), d, c.Folds, c.Seed)
		oursRow += sprintfAcc(res.Accuracy, len(sc.Name()))
		r.Metric("Ours/"+sc.Name(), res.Accuracy)
	}
	r.Lines = append(r.Lines, oursRow, paperRow("Ours", width))

	for _, tech := range techs {
		row := padRight(methodLabel(tech), width)
		for _, sc := range Scenarios() {
			if !tech.Adaptable {
				row += padLeft("—", len(sc.Name())+2)
				continue
			}
			values, labels, err := c.LabValues(sc)
			if err != nil {
				return nil, err
			}
			quic := sc.Transport == fingerprint.QUIC
			enc, err := tech.Build(values, quic)
			if err != nil {
				return nil, err
			}
			x := make([][]float64, len(values))
			for i, v := range values {
				x[i] = enc.Transform(v)
			}
			d, err := ml.NewDataset(x, labels)
			if err != nil {
				return nil, err
			}
			res := ml.CrossValidate(c.forestFactory(20, 0), d, c.Folds, c.Seed)
			row += sprintfAcc(res.Accuracy, len(sc.Name()))
			r.Metric(tech.Ref+"/"+sc.Name(), res.Accuracy)
		}
		r.Lines = append(r.Lines, row, paperRow(tech.Ref, width))
	}

	r.Printf("paper ordering to reproduce: Ours >= every adaptable baseline per scenario;")
	r.Printf("[53] collapses on YT QUIC (paper: 11.3%%); [55] and [40] are not adaptable.")
	return r, nil
}

// methodLabel is a baseline's name in the method column.
func methodLabel(tech *baselines.Technique) string { return tech.Name + " " + tech.Ref }

// paperRow formats paperTable6's row for key in the table's columns, a
// method column width wide, "—" where the paper has a dash.
func paperRow(key string, width int) string {
	row := padRight("  paper", width)
	for i, sc := range Scenarios() {
		if acc := paperTable6[key][i]; acc >= 0 {
			row += sprintfAcc(acc, len(sc.Name()))
		} else {
			row += padLeft("—", len(sc.Name())+2)
		}
	}
	return row
}

func sprintfAcc(acc float64, width int) string {
	return fmt.Sprintf("%*s", width+2, fmt.Sprintf("%.1f%%", acc*100))
}

func padRight(s string, n int) string { return fmt.Sprintf("%-*s", n, s) }

func padLeft(s string, n int) string { return fmt.Sprintf("%*s", n, s) }
