package features

import (
	"fmt"
	"sort"
)

// Encoder turns FieldValues into fixed-width numeric vectors for a given
// transport and attribute subset. Fit builds the per-attribute token
// vocabularies from training data (the §4.2.1 "value mapping" dictionaries);
// Transform applies them, mapping unseen tokens to 0.
type Encoder struct {
	Attrs  []Attribute
	vocabs map[string]map[string]int // attribute label -> token -> id (1-based)

	cols []Column
}

// Column describes one expanded vector column.
type Column struct {
	Attr  int    // index into Attrs
	Name  string // e.g. "m3[2]" or "t11"
	Index int    // position within a list attribute, 0 for scalars
}

// NewEncoder builds an encoder over the attributes applicable to the
// transport. Pass a nil subset to use all applicable attributes, or a list
// of Table 2 labels to restrict (for the §4.3.3 cost-subset models).
func NewEncoder(quic bool, subset []string) (*Encoder, error) {
	avail := ForTransport(quic)
	var attrs []Attribute
	if subset == nil {
		attrs = avail
	} else {
		byLabel := map[string]Attribute{}
		for _, a := range avail {
			byLabel[a.Label] = a
		}
		for _, l := range subset {
			a, ok := byLabel[l]
			if !ok {
				return nil, fmt.Errorf("features: attribute %q not applicable", l)
			}
			attrs = append(attrs, a)
		}
	}
	e := &Encoder{Attrs: attrs, vocabs: map[string]map[string]int{}}
	for ai, a := range attrs {
		if a.Kind == List {
			for i := 0; i < a.Width; i++ {
				e.cols = append(e.cols, Column{Attr: ai, Name: fmt.Sprintf("%s[%d]", a.Label, i), Index: i})
			}
		} else {
			e.cols = append(e.cols, Column{Attr: ai, Name: a.Label})
		}
	}
	return e, nil
}

// Columns returns the expanded column metadata.
func (e *Encoder) Columns() []Column { return e.cols }

// Width returns the vector width.
func (e *Encoder) Width() int { return len(e.cols) }

// Fit builds vocabularies from training samples. Tokens are assigned ids in
// sorted order for determinism.
func (e *Encoder) Fit(samples []*FieldValues) {
	tokens := map[string]map[string]bool{}
	add := func(label, tok string) {
		m := tokens[label]
		if m == nil {
			m = map[string]bool{}
			tokens[label] = m
		}
		m[tok] = true
	}
	for _, s := range samples {
		for _, a := range e.Attrs {
			switch a.Kind {
			case Categorical:
				if t, ok := s.Cats[a.Label]; ok {
					add(a.Label, t)
				}
			case List:
				for _, t := range s.Lists[a.Label] {
					add(a.Label, t)
				}
			}
		}
	}
	e.vocabs = map[string]map[string]int{}
	for label, set := range tokens {
		sorted := make([]string, 0, len(set))
		for t := range set {
			sorted = append(sorted, t)
		}
		sort.Strings(sorted)
		vocab := make(map[string]int, len(sorted))
		for i, t := range sorted {
			vocab[t] = i + 1
		}
		e.vocabs[label] = vocab
	}
}

// Transform encodes one sample. Unseen categorical/list tokens map to 0, as
// do absent attributes.
func (e *Encoder) Transform(s *FieldValues) []float64 {
	out := make([]float64, len(e.cols))
	for ci, col := range e.cols {
		a := e.Attrs[col.Attr]
		switch a.Kind {
		case Numerical, Presence, Length:
			out[ci] = s.Nums[a.Label]
		case Categorical:
			if t, ok := s.Cats[a.Label]; ok {
				out[ci] = float64(e.vocabs[a.Label][t])
			}
		case List:
			list := s.Lists[a.Label]
			if col.Index < len(list) {
				out[ci] = float64(e.vocabs[a.Label][list[col.Index]])
			}
		}
	}
	return out
}

// TransformAll encodes a batch.
func (e *Encoder) TransformAll(samples []*FieldValues) [][]float64 {
	out := make([][]float64, len(samples))
	for i, s := range samples {
		out[i] = e.Transform(s)
	}
	return out
}

// EquivalentTo reports whether two fitted encoders produce identical
// vectors for every input: same attribute sequence and identical
// vocabularies. A serialized pipeline bank carries one encoder blob per
// objective model; its loader uses this to check that an entry's three
// blobs describe the one encoder its models share.
func (e *Encoder) EquivalentTo(o *Encoder) bool {
	if o == nil || len(e.Attrs) != len(o.Attrs) {
		return false
	}
	for i := range e.Attrs {
		if e.Attrs[i].Label != o.Attrs[i].Label {
			return false
		}
	}
	if len(e.vocabs) != len(o.vocabs) {
		return false
	}
	for label, v := range e.vocabs {
		ov, ok := o.vocabs[label]
		if !ok || len(v) != len(ov) {
			return false
		}
		for tok, id := range v {
			if ov[tok] != id {
				return false
			}
		}
	}
	return true
}

// AttrColumns returns the expanded column indices belonging to the given
// attribute label. Used to aggregate per-column importances back to Table 2
// attributes.
func (e *Encoder) AttrColumns(label string) []int {
	var out []int
	for ci, col := range e.cols {
		if e.Attrs[col.Attr].Label == label {
			out = append(out, ci)
		}
	}
	return out
}
