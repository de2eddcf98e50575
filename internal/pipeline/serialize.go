package pipeline

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"videoplat/internal/features"
	"videoplat/internal/fingerprint"
	"videoplat/internal/ml"
)

type modelDTO struct {
	Provider  uint8
	Transport uint8
	Objective uint8
	Encoder   []byte
	Forest    []byte
	Classes   []string
}

// bankFormat is the on-wire format generation of serialized banks. Format 0
// is the pre-versioning layout (identical fields minus Format/Version), so
// decoding accepts 0..bankFormat and rejects only formats from the future.
const bankFormat = 1

type bankDTO struct {
	Format  uint32
	Version string
	Config  ml.ForestConfig
	Models  []modelDTO
}

// MarshalBinary serializes the trained bank with encoding/gob, so a model
// trained by cmd/vptrain can be deployed by cmd/vpclassify.
func (b *Bank) MarshalBinary() ([]byte, error) {
	dto := bankDTO{Format: bankFormat, Version: b.Version, Config: b.Config}
	for key, m := range b.models {
		encBlob, err := m.Encoder.MarshalBinary()
		if err != nil {
			return nil, err
		}
		forestBlob, err := m.Forest.MarshalBinary()
		if err != nil {
			return nil, err
		}
		dto.Models = append(dto.Models, modelDTO{
			Provider:  uint8(key.Provider),
			Transport: uint8(key.Transport),
			Objective: uint8(key.Objective),
			Encoder:   encBlob,
			Forest:    forestBlob,
			Classes:   m.Classes,
		})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(dto); err != nil {
		return nil, fmt.Errorf("pipeline: encoding bank: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary restores a bank serialized by MarshalBinary, serving index
// included. A blob holding a model that cannot be compiled is refused (see
// buildIndex); on any error b is left as it was, so a Bank reloaded in place
// either serves the decoded models or keeps serving the old ones.
func (b *Bank) UnmarshalBinary(data []byte) error {
	var dto bankDTO
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&dto); err != nil {
		return fmt.Errorf("pipeline: decoding bank: %w", err)
	}
	if dto.Format > bankFormat {
		return fmt.Errorf("pipeline: bank format v%d was written by a newer build (this build reads up to v%d)",
			dto.Format, bankFormat)
	}
	nb := Bank{Version: dto.Version, Config: dto.Config, models: map[bankKey]*Model{}}
	for _, md := range dto.Models {
		enc := &features.Encoder{}
		if err := enc.UnmarshalBinary(md.Encoder); err != nil {
			return err
		}
		forest := &ml.RandomForest{}
		if err := forest.UnmarshalBinary(md.Forest); err != nil {
			return err
		}
		nb.models[bankKey{
			Provider:  fingerprint.Provider(md.Provider),
			Transport: fingerprint.Transport(md.Transport),
			Objective: Objective(md.Objective),
		}] = &Model{Encoder: enc, Forest: forest, Classes: md.Classes}
	}
	if err := nb.buildIndex(); err != nil {
		return err
	}
	*b = nb
	return nil
}
