package ml

import (
	"math"
	"math/rand/v2"
	"runtime"
	"sync"
)

// ForestConfig are the random-forest hyperparameters of §4.3.1: number of
// trees, maximum depth and the number of candidate attributes per split.
type ForestConfig struct {
	NumTrees    int
	MaxDepth    int
	MaxFeatures int // 0 = sqrt(total features)
	Seed        uint64
}

// RandomForest is a bagged ensemble of CART trees; PredictProba averages the
// member leaf distributions, giving the confidence score used by the
// pipeline's 80% selector.
type RandomForest struct {
	Config ForestConfig
	trees  []*DecisionTree
	// classes is the fitted class-universe size, set by Fit and
	// UnmarshalBinary, so prediction buffers are sized once instead of
	// being re-grown per member tree.
	classes int
}

// Fit trains the ensemble on bootstrap samples of d. Training is
// parallelized across trees, which share one ranking of d's columns. A NaN
// feature value ranks above every number, so no split sends it left: x <= t
// is false for it, as at predict.
func (f *RandomForest) Fit(d *Dataset) {
	cfg := f.Config
	if cfg.NumTrees <= 0 {
		cfg.NumTrees = 50
	}
	maxFeat := cfg.MaxFeatures
	if maxFeat <= 0 {
		maxFeat = int(math.Sqrt(float64(d.NumFeatures())))
		if maxFeat < 1 {
			maxFeat = 1
		}
	}
	f.trees = make([]*DecisionTree, cfg.NumTrees)
	f.classes = len(d.Classes)
	cols := rankColumns(d)

	workers := runtime.GOMAXPROCS(0)
	if workers > cfg.NumTrees {
		workers = cfg.NumTrees
	}
	var wg sync.WaitGroup
	jobs := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ti := range jobs {
				tc, rows := cfg.member(ti, maxFeat, d.Len())
				tree := &DecisionTree{Config: tc}
				tree.fit(d, cols, rows)
				f.trees[ti] = tree
			}
		}()
	}
	for ti := 0; ti < cfg.NumTrees; ti++ {
		jobs <- ti
	}
	close(jobs)
	wg.Wait()
}

// member is tree ti's configuration and bootstrap sample of n rows.
func (cfg ForestConfig) member(ti, maxFeat, n int) (TreeConfig, []int) {
	rng := rand.New(rand.NewPCG(cfg.Seed, uint64(ti)*0x9e3779b97f4a7c15+1))
	rows := make([]int, n)
	for i := range rows {
		rows[i] = rng.IntN(n)
	}
	return TreeConfig{MaxDepth: cfg.MaxDepth, MaxFeatures: maxFeat, Seed: cfg.Seed ^ uint64(ti)}, rows
}

// PredictProba averages member probabilities.
func (f *RandomForest) PredictProba(x []float64) []float64 {
	return f.PredictProbaInto(x, nil)
}

// PredictProbaInto is PredictProba accumulating into out's capacity, so a
// serving loop can reuse one probability buffer per worker and predict
// without allocating. The returned slice is the (possibly grown) buffer;
// the float operations are performed in the same order as PredictProba, so
// the two are bitwise identical (and the steady state allocation-free:
// TestPredictIntoMatchesPredict).
func (f *RandomForest) PredictProbaInto(x, out []float64) []float64 {
	if len(f.trees) == 0 {
		// No members: an explicit empty distribution instead of reaching the
		// division with a zero tree count.
		return out[:0]
	}
	// Size the output from the fitted class count once, instead of re-growing
	// it leaf by leaf for every member tree.
	if cap(out) < f.classes {
		out = make([]float64, f.classes) // cold first-call growth; steady state reuses out
	} else {
		out = out[:f.classes]
		clear(out)
	}
	for _, t := range f.trees {
		p := t.PredictProba(x)
		for i, v := range p {
			out[i] += v
		}
	}
	for i := range out {
		out[i] /= float64(len(f.trees))
	}
	return out
}

// PredictInto returns the argmax class index and its probability, reusing
// *proba as the probability scratch buffer (it is grown in place as
// needed). Equivalent to Predict(f, x) with zero steady-state allocations,
// pinned by TestPredictIntoMatchesPredict.
func (f *RandomForest) PredictInto(x []float64, proba *[]float64) (int, float64) {
	*proba = f.PredictProbaInto(x, *proba)
	if len(*proba) == 0 {
		return 0, 0 // untrained forest: explicit zero-value prediction
	}
	best, bestP := 0, -1.0
	for i, v := range *proba {
		if v > bestP {
			best, bestP = i, v
		}
	}
	return best, bestP
}

// NumTrees reports the trained ensemble size.
func (f *RandomForest) NumTrees() int { return len(f.trees) }

// NumClasses reports the fitted class-universe size (the width of every
// probability vector the forest produces).
func (f *RandomForest) NumClasses() int { return f.classes }
