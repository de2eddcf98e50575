package experiments

// Experiment is one entry of the catalog: the name cmd/vpexperiments takes on
// its command line and the function that regenerates that table or figure
// (several reports for the multi-panel figures and for the ablations).
type Experiment struct {
	Name string
	Run  func(*Context) ([]*Report, error)
}

// Catalog is every experiment of the paper's evaluation, in the paper's
// order: §3 dataset, §4 classifier evaluation, §5 campus deployment, the
// appendix figures, then this repo's four ablations as one entry and the
// Table 2 attributes the bank's forests read. It is the
// one list of experiments: the CLI's usage text, lookup and "all" order, the
// root benchmarks and the catalog test all range over it.
var Catalog = []Experiment{
	{"table1", one(Table1)},
	{"fig3", one(Fig3)},
	{"fig5", Fig5},
	{"fig6a", one(Fig6a)},
	{"fig6bcd", Fig6bcd},
	{"algocmp", one(AlgoComparison)},
	{"table3", one(Table3)},
	{"table4", one(Table4)},
	{"table5", one(Table5)},
	{"table6", one(Table6)},
	{"fig7", one(Fig7)},
	{"fig8", one(Fig8)},
	{"fig9", one(Fig9)},
	{"fig10", one(Fig10)},
	{"fig11", one(Fig11)},
	{"fig12", Fig12},
	{"fig13", Fig13},
	{"fig14", Fig14},
	{"ablations", ablations},
	{"attrs", one(AttributesRead)},
}

// one adapts a single-report experiment to the catalog's signature.
func one(fn func(*Context) (*Report, error)) func(*Context) ([]*Report, error) {
	return func(c *Context) ([]*Report, error) {
		r, err := fn(c)
		if err != nil {
			return nil, err
		}
		return []*Report{r}, nil
	}
}

func ablations(c *Context) ([]*Report, error) {
	var out []*Report
	for _, fn := range []func(*Context) (*Report, error){
		AblationListEncoding, AblationGrease, AblationConfidenceSelector, AblationGlobalClassifier,
	} {
		r, err := fn(c)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
