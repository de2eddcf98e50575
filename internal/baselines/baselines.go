// Package baselines re-implements the six state-of-the-art techniques the
// paper benchmarks against in Table 6, each with the "required specific
// adaptations" the paper lists: flow-level granularity, expanded inference
// objectives and a common random-forest classification protocol. Two
// techniques ([55] Richardson & Garcia, [40] Marzani et al.) operate on
// per-host flow aggregates and cannot be adapted to single flows behind
// NAT; they are present but report themselves not adaptable, as the paper's
// dashes do.
package baselines

import (
	"fmt"
	"sort"
	"strings"

	"videoplat/internal/features"
)

// Technique is one prior method under the common evaluation protocol: it
// turns extracted handshake fields into its own feature matrix.
type Technique struct {
	// Name and Ref identify the technique ([n] in the paper's Table 6).
	Name string
	Ref  string
	// Objective is the technique's original inference objective.
	Objective string
	// Adaptable reports whether a flow-level adaptation exists.
	Adaptable bool
	// Adaptations lists the paper's "required specific adaptations".
	Adaptations string

	// build constructs a fitted encoder from training values; nil for
	// non-adaptable techniques.
	build func(train []*features.FieldValues, quic bool) (Encoder, error)
}

// Encoder transforms extracted field values into the technique's feature
// vectors.
type Encoder interface {
	Transform(v *features.FieldValues) []float64
	Width() int
}

// Build fits the technique's encoder on training data.
func (t *Technique) Build(train []*features.FieldValues, quic bool) (Encoder, error) {
	if !t.Adaptable {
		return nil, fmt.Errorf("baselines: %s is not adaptable to flow-level inference", t.Name)
	}
	return t.build(train, quic)
}

// subsetEncoder adapts features.Encoder to the Encoder interface.
type subsetEncoder struct{ enc *features.Encoder }

func (s subsetEncoder) Transform(v *features.FieldValues) []float64 { return s.enc.Transform(v) }
func (s subsetEncoder) Width() int                                  { return s.enc.Width() }

func subsetBuilder(tcpLabels, quicLabels []string) func([]*features.FieldValues, bool) (Encoder, error) {
	return func(train []*features.FieldValues, quic bool) (Encoder, error) {
		labels := tcpLabels
		if quic {
			labels = quicLabels
		}
		enc, err := features.NewEncoder(quic, labels)
		if err != nil {
			return nil, err
		}
		enc.Fit(train)
		return subsetEncoder{enc}, nil
	}
}

// wholeValueEncoder encodes each configured attribute as a single
// categorical id of its *entire* value (a whole cipher-suite list is one
// token), the coarse representation used by Lastovicka et al. [28].
type wholeValueEncoder struct {
	labels []string
	vocab  []map[string]int
}

func newWholeValueEncoder(labels []string, train []*features.FieldValues) *wholeValueEncoder {
	w := &wholeValueEncoder{labels: labels, vocab: make([]map[string]int, len(labels))}
	for li, label := range labels {
		set := map[string]bool{}
		for _, v := range train {
			set[wholeToken(v, label)] = true
		}
		sorted := make([]string, 0, len(set))
		for t := range set {
			sorted = append(sorted, t)
		}
		sort.Strings(sorted)
		m := make(map[string]int, len(sorted))
		for i, t := range sorted {
			m[t] = i + 1
		}
		w.vocab[li] = m
	}
	return w
}

func wholeToken(v *features.FieldValues, label string) string {
	if t, ok := v.Cats[label]; ok {
		return t
	}
	if l, ok := v.Lists[label]; ok {
		return strings.Join(l, "|")
	}
	if n, ok := v.Nums[label]; ok {
		return fmt.Sprintf("%g", n)
	}
	return ""
}

func (w *wholeValueEncoder) Transform(v *features.FieldValues) []float64 {
	out := make([]float64, len(w.labels))
	for li, label := range w.labels {
		out[li] = float64(w.vocab[li][wholeToken(v, label)])
	}
	return out
}

func (w *wholeValueEncoder) Width() int { return len(w.labels) }

// All returns the six techniques in Table 6 order.
func All() []*Technique {
	return []*Technique{
		{
			Name: "Anderson & McGrew", Ref: "[6]",
			Objective: "Dev. type + Soft. agent", Adaptable: true,
			Adaptations: "feature construction from fingerprint strings; classification process",
			// TLS-fingerprint components: version, cipher suites, extension
			// types and their contents (groups, point formats, sigalgs,
			// ALPN, versions, key shares, compression). No transport-layer
			// or QUIC-parameter visibility — that is our method's edge.
			build: subsetBuilder(
				[]string{"m2", "m3", "o1", "o4", "o5", "o6", "o7", "o12",
					"o13", "o18", "o19", "o21", "o22"},
				[]string{"m2", "m3", "o1", "o4", "o5", "o6", "o7", "o12",
					"o13", "o18", "o19", "o21", "o22"}),
		},
		{
			Name: "Fan et al.", Ref: "[14]",
			Objective: "Dev. type", Adaptable: true,
			Adaptations: "flow granularity; inference objective",
			// TCP/IP stack fingerprinting: transport-layer fields plus the
			// visible handshake length. Over QUIC only packet size, TTL and
			// the (decrypted) handshake length survive.
			build: subsetBuilder(
				[]string{"t1", "t2", "t3", "t4", "t5", "t6", "t7", "t8", "t9", "t10",
					"t11", "t12", "t13", "t14", "m1"},
				[]string{"t1", "t2", "m1"}),
		},
		{
			Name: "Lastovicka et al.", Ref: "[28]",
			Objective: "Dev. type", Adaptable: true,
			Adaptations: "flow granularity; inference objective",
			// Seven whole-value TLS features (server name, TLS version,
			// cipher suites, compression, extensions, groups, point formats).
			build: func(train []*features.FieldValues, quic bool) (Encoder, error) {
				return newWholeValueEncoder(
					[]string{"o2", "m2", "m3", "m4", "o1", "o4", "o5"}, train), nil
			},
		},
		{
			Name: "Richardson & Garcia", Ref: "[55]",
			Objective: "Dev. type + Soft. agent", Adaptable: false,
			Adaptations: "not adaptable (requires all flows of a host)",
		},
		{
			Name: "Ren et al.", Ref: "[53]",
			Objective: "Soft. agent", Adaptable: true,
			Adaptations: "inference objective",
			// Flow metadata plus the TLS record/message type & lengths; in
			// QUIC the record layer is encrypted, leaving only the initial
			// packet size — hence the paper's 11.3% on YouTube QUIC.
			build: subsetBuilder(
				[]string{"t1", "m1", "m5"},
				[]string{"t1"}),
		},
		{
			Name: "Marzani et al.", Ref: "[40]",
			Objective: "Soft. agent", Adaptable: false,
			Adaptations: "not adaptable (learns automata over per-host flow sequences)",
		},
	}
}
