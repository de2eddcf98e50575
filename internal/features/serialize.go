package features

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"maps"
	"slices"
)

type encoderDTO struct {
	Labels []string
	// Vocabs is how blobs written before VocabList carried the
	// vocabularies. It is read, never written: gob writes a map in
	// iteration order, so the same encoder gave different bytes each time.
	Vocabs map[string]map[string]int
	QUIC   bool
	// VocabList holds the vocabularies sorted by label, each one's tokens
	// sorted, so an encoder always marshals to the same bytes.
	VocabList []vocabDTO
}

// vocabDTO is one attribute's vocabulary: Tokens[i] has id IDs[i].
type vocabDTO struct {
	Label  string
	Tokens []string
	IDs    []int
}

// MarshalBinary serializes the fitted encoder (attribute subset and
// vocabularies) with encoding/gob. The same encoder always gives the same
// bytes.
func (e *Encoder) MarshalBinary() ([]byte, error) {
	var dto encoderDTO
	for _, label := range slices.Sorted(maps.Keys(e.vocabs)) {
		vocab := e.vocabs[label]
		v := vocabDTO{Label: label, Tokens: slices.Sorted(maps.Keys(vocab))}
		for _, tok := range v.Tokens {
			v.IDs = append(v.IDs, vocab[tok])
		}
		dto.VocabList = append(dto.VocabList, v)
	}
	for _, a := range e.Attrs {
		dto.Labels = append(dto.Labels, a.Label)
	}
	// Recover transport from the attribute set: QUIC sets carry q-labels,
	// TCP sets carry t3+.
	for _, a := range e.Attrs {
		if a.Scope == QUICOnly {
			dto.QUIC = true
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(dto); err != nil {
		return nil, fmt.Errorf("features: encoding encoder: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary restores an encoder serialized by MarshalBinary.
func (e *Encoder) UnmarshalBinary(data []byte) error {
	var dto encoderDTO
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&dto); err != nil {
		return fmt.Errorf("features: decoding encoder: %w", err)
	}
	ne, err := NewEncoder(dto.QUIC, dto.Labels)
	if err != nil {
		return err
	}
	*e = *ne
	if dto.Vocabs != nil {
		e.vocabs = dto.Vocabs
	}
	for _, v := range dto.VocabList {
		if len(v.IDs) != len(v.Tokens) {
			return fmt.Errorf("features: decoding encoder: %s vocabulary has %d tokens and %d ids",
				v.Label, len(v.Tokens), len(v.IDs))
		}
		vocab := make(map[string]int, len(v.Tokens))
		for i, tok := range v.Tokens {
			vocab[tok] = v.IDs[i]
		}
		e.vocabs[v.Label] = vocab
	}
	return nil
}
