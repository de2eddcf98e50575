package ml

import (
	"math"
	"math/rand/v2"
)

// MLPConfig are the neural-network hyperparameters of §4.3.1: hidden layout,
// epochs and seed. The hidden layers are ReLU, the activation §4.3.1's
// comparison runs.
type MLPConfig struct {
	Hidden []int // perceptrons per hidden layer
	Epochs int   // default 60
	Seed   uint64
}

// The SGD step: learning rate and mini-batch size.
const (
	learningRate = 0.01
	batchSize    = 32
)

// MLP is a feed-forward network with a softmax head trained by mini-batch
// SGD with momentum, standardizing inputs like the KNN.
type MLP struct {
	Config MLPConfig

	weights [][][]float64 // [layer][out][in]
	biases  [][]float64
	mean    []float64
	std     []float64
	classes int
}

func relu(v float64) float64 {
	if v > 0 {
		return v
	}
	return 0
}

// reluDeriv is ReLU's derivative, taken at its output.
func reluDeriv(activated float64) float64 {
	if activated > 0 {
		return 1
	}
	return 0
}

// Fit trains the network.
func (m *MLP) Fit(d *Dataset) {
	cfg := m.Config
	if cfg.Epochs == 0 {
		cfg.Epochs = 60
	}
	if len(cfg.Hidden) == 0 {
		cfg.Hidden = []int{64}
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0x6d6c70))

	nIn := d.NumFeatures()
	m.classes = len(d.Classes)
	m.mean, m.std = columnStats(d.X)

	sizes := append(append([]int{nIn}, cfg.Hidden...), m.classes)
	m.weights = make([][][]float64, len(sizes)-1)
	m.biases = make([][]float64, len(sizes)-1)
	for l := 0; l < len(sizes)-1; l++ {
		m.weights[l] = make([][]float64, sizes[l+1])
		m.biases[l] = make([]float64, sizes[l+1])
		scale := math.Sqrt(2.0 / float64(sizes[l]))
		for o := range m.weights[l] {
			m.weights[l][o] = make([]float64, sizes[l])
			for i := range m.weights[l][o] {
				m.weights[l][o][i] = rng.NormFloat64() * scale
			}
		}
	}

	order := make([]int, d.Len())
	for i := range order {
		order[i] = i
	}
	momentum := 0.9
	velW := zerosLike(m.weights)
	velB := zerosLikeVec(m.biases)

	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < len(order); start += batchSize {
			end := start + batchSize
			if end > len(order) {
				end = len(order)
			}
			gradW := zerosLike(m.weights)
			gradB := zerosLikeVec(m.biases)
			for _, r := range order[start:end] {
				m.backprop(m.standardize(d.X[r]), d.Y[r], gradW, gradB)
			}
			lr := learningRate / float64(end-start)
			for l := range m.weights {
				for o := range m.weights[l] {
					for i := range m.weights[l][o] {
						velW[l][o][i] = momentum*velW[l][o][i] - lr*gradW[l][o][i]
						m.weights[l][o][i] += velW[l][o][i]
					}
					velB[l][o] = momentum*velB[l][o] - lr*gradB[l][o]
					m.biases[l][o] += velB[l][o]
				}
			}
		}
	}
}

func (m *MLP) standardize(x []float64) []float64 {
	out := make([]float64, len(x))
	for j, v := range x {
		out[j] = (v - m.mean[j]) / m.std[j]
	}
	return out
}

// forward returns the activations of every layer (layer 0 = input).
func (m *MLP) forward(x []float64) [][]float64 {
	acts := [][]float64{x}
	cur := x
	for l := range m.weights {
		next := make([]float64, len(m.weights[l]))
		for o := range m.weights[l] {
			sum := m.biases[l][o]
			w := m.weights[l][o]
			for i, v := range cur {
				sum += w[i] * v
			}
			if l == len(m.weights)-1 {
				next[o] = sum // softmax applied by caller
			} else {
				next[o] = relu(sum)
			}
		}
		acts = append(acts, next)
		cur = next
	}
	return acts
}

func softmax(logits []float64) []float64 {
	maxL := math.Inf(-1)
	for _, v := range logits {
		if v > maxL {
			maxL = v
		}
	}
	out := make([]float64, len(logits))
	var sum float64
	for i, v := range logits {
		out[i] = math.Exp(v - maxL)
		sum += out[i]
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

func (m *MLP) backprop(x []float64, y int, gradW [][][]float64, gradB [][]float64) {
	acts := m.forward(x)
	probs := softmax(acts[len(acts)-1])

	// delta at output: softmax + cross-entropy
	delta := make([]float64, len(probs))
	copy(delta, probs)
	delta[y] -= 1

	for l := len(m.weights) - 1; l >= 0; l-- {
		in := acts[l]
		for o := range m.weights[l] {
			gradB[l][o] += delta[o]
			for i := range m.weights[l][o] {
				gradW[l][o][i] += delta[o] * in[i]
			}
		}
		if l == 0 {
			break
		}
		prev := make([]float64, len(in))
		for i := range prev {
			var sum float64
			for o := range m.weights[l] {
				sum += m.weights[l][o][i] * delta[o]
			}
			prev[i] = sum * reluDeriv(in[i])
		}
		delta = prev
	}
}

// PredictProba runs a forward pass.
func (m *MLP) PredictProba(x []float64) []float64 {
	acts := m.forward(m.standardize(x))
	return softmax(acts[len(acts)-1])
}

func columnStats(x [][]float64) (mean, std []float64) {
	if len(x) == 0 {
		return nil, nil
	}
	m := len(x[0])
	mean = make([]float64, m)
	std = make([]float64, m)
	for _, row := range x {
		for j, v := range row {
			mean[j] += v
		}
	}
	for j := range mean {
		mean[j] /= float64(len(x))
	}
	for _, row := range x {
		for j, v := range row {
			dv := v - mean[j]
			std[j] += dv * dv
		}
	}
	for j := range std {
		std[j] = math.Sqrt(std[j] / float64(len(x)))
		if std[j] == 0 {
			std[j] = 1
		}
	}
	return mean, std
}

func zerosLike(w [][][]float64) [][][]float64 {
	out := make([][][]float64, len(w))
	for l := range w {
		out[l] = make([][]float64, len(w[l]))
		for o := range w[l] {
			out[l][o] = make([]float64, len(w[l][o]))
		}
	}
	return out
}

func zerosLikeVec(b [][]float64) [][]float64 {
	out := make([][]float64, len(b))
	for l := range b {
		out[l] = make([]float64, len(b[l]))
	}
	return out
}
