package pipeline

import (
	"bytes"
	"cmp"
	"encoding/gob"
	"fmt"
	"maps"
	"slices"

	"videoplat/internal/features"
	"videoplat/internal/fingerprint"
	"videoplat/internal/ml"
	"videoplat/internal/ml/mlwire"
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
// Format 2 writes the models in (provider, transport, objective) order and
// each encoder's vocabularies as sorted lists, so a bank marshals to the
// same bytes every time; a format-1 build would read those encoders as
// empty, so it must refuse them.
const bankFormat = 2

// bankDTO is the saved bank. Its Config is the wire copy of Bank.Config
// (see mlwire), so the in-memory config can change without changing a blob.
type bankDTO struct {
	Format  uint32
	Version string
	Config  mlwire.ForestConfig
	Models  []modelDTO
}

// MarshalBinary serializes the trained bank with encoding/gob, so a model
// trained by cmd/vptrain can be deployed by cmd/vpclassify. The layout keeps
// one modelDTO per model, each with an encoder blob: an entry's encoder is
// marshaled once and written into its three models, so builds that load
// three encoders per entry read this blob too. The models are written in
// (provider, transport, objective) order, so the same bank always gives the
// same bytes.
func (b *Bank) MarshalBinary() ([]byte, error) {
	c := b.Config
	dto := bankDTO{Format: bankFormat, Version: b.Version, Config: mlwire.ForestConfig{
		NumTrees: c.NumTrees, MaxDepth: c.MaxDepth, MaxFeatures: c.MaxFeatures, Seed: c.Seed}}
	keys := slices.SortedFunc(maps.Keys(b.entries), func(x, y entryKey) int {
		return cmp.Or(cmp.Compare(x.Provider, y.Provider), cmp.Compare(x.Transport, y.Transport))
	})
	for _, key := range keys {
		e := b.entries[key]
		encBlob, err := e.enc.MarshalBinary()
		if err != nil {
			return nil, err
		}
		for obj, m := range e.objectives() {
			forestBlob, err := m.Forest.MarshalBinary()
			if err != nil {
				return nil, err
			}
			dto.Models = append(dto.Models, modelDTO{
				Provider:  uint8(key.Provider),
				Transport: uint8(key.Transport),
				Objective: uint8(obj),
				Encoder:   encBlob,
				Forest:    forestBlob,
				Classes:   m.Classes,
			})
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(dto); err != nil {
		return nil, fmt.Errorf("pipeline: encoding bank: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary restores a bank serialized by MarshalBinary, serving index
// included. A blob is refused, with an error naming the model, when an entry
// lacks one of its three objective models, when a model's class names do not
// match its forest's distribution width, when an objective's encoder differs
// from the platform model's (they could not share one encoder), or when a
// model cannot be compiled for its entry's encoded rows (see buildIndex). On any error b is left as
// it was, so a Bank reloaded in place either serves the decoded models or
// keeps serving the old ones.
func (b *Bank) UnmarshalBinary(data []byte) error {
	var dto bankDTO
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&dto); err != nil {
		return fmt.Errorf("pipeline: decoding bank: %w", err)
	}
	if dto.Format > bankFormat {
		return fmt.Errorf("pipeline: bank format v%d was written by a newer build (this build reads up to v%d)",
			dto.Format, bankFormat)
	}
	decoded := map[entryKey]*[3]*Model{}
	for _, md := range dto.Models {
		key := entryKey{fingerprint.Provider(md.Provider), fingerprint.Transport(md.Transport)}
		obj := Objective(md.Objective)
		if obj > AgentObjective {
			return fmt.Errorf("pipeline: %s/%s: unknown objective %d", key.Provider, key.Transport, md.Objective)
		}
		enc := &features.Encoder{}
		if err := enc.UnmarshalBinary(md.Encoder); err != nil {
			return err
		}
		forest := &ml.RandomForest{}
		if err := forest.UnmarshalBinary(md.Forest); err != nil {
			return err
		}
		if len(md.Classes) != forest.NumClasses() {
			return fmt.Errorf("pipeline: %s/%s/%s: %d class names for a forest of %d classes",
				key.Provider, key.Transport, obj, len(md.Classes), forest.NumClasses())
		}
		if decoded[key] == nil {
			decoded[key] = &[3]*Model{}
		}
		decoded[key][obj] = &Model{Encoder: enc, Forest: forest, Classes: md.Classes}
	}
	c := dto.Config
	nb := Bank{Version: dto.Version, entries: map[entryKey]*bankEntry{}, Config: ml.ForestConfig{
		NumTrees: c.NumTrees, MaxDepth: c.MaxDepth, MaxFeatures: c.MaxFeatures, Seed: c.Seed}}
	for key, ms := range decoded {
		for obj, m := range ms {
			if m == nil {
				return fmt.Errorf("pipeline: %s/%s/%s: model missing from the bank", key.Provider, key.Transport, Objective(obj))
			}
			if !m.Encoder.EquivalentTo(ms[PlatformObjective].Encoder) {
				return fmt.Errorf("pipeline: %s/%s/%s: encoder differs from the %s model's",
					key.Provider, key.Transport, Objective(obj), PlatformObjective)
			}
		}
		nb.entries[key] = &bankEntry{
			enc:      ms[PlatformObjective].Encoder,
			platform: ms[PlatformObjective],
			device:   ms[DeviceObjective],
			agent:    ms[AgentObjective],
		}
	}
	if err := nb.buildIndex(); err != nil {
		return err
	}
	*b = nb
	return nil
}
