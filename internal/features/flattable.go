package features

import (
	"fmt"
	"math"
	"math/bits"
)

// flatTable is an immutable open-addressed hash table from a raw wire value
// to its 1-based vocabulary id: the compiled encoder's interned vocabulary.
// It is one slice of key/id slots at a load factor of at most one half —
// eight bytes a slot for uint16 keys, so a few hundred bytes for a typical
// attribute — probed linearly from a multiplicative hash. A lookup is a
// multiply, a shift and, nearly always, one slot read; the Go map it
// replaced cost several times that per cipher suite or extension id, eighty
// times a hello. The zero value is an empty table.
type flatTable[K uint16 | uint64] struct {
	slots []flatSlot[K] // length a power of two, at least twice the entries
	shift uint8         // 64 - log2(len(slots))
}

// flatSlot is one entry; id 0 marks an empty slot (vocabulary ids start at 1).
type flatSlot[K uint16 | uint64] struct {
	key K
	id  int32
}

// newFlatTable interns entries. Ids outside 1..MaxInt32 — which Encoder.Fit
// never assigns, but a hand-edited serialized vocabulary could carry — are
// an error, so Compile fails and callers keep the reference encoder.
func newFlatTable[K uint16 | uint64](entries map[K]int) (flatTable[K], error) {
	var t flatTable[K]
	if len(entries) == 0 {
		return t, nil
	}
	size := 1 << bits.Len(uint(2*len(entries)-1))
	t.slots = make([]flatSlot[K], size)
	t.shift = uint8(64 - bits.TrailingZeros(uint(size)))
	for k, id := range entries {
		if id < 1 || id > math.MaxInt32 {
			return flatTable[K]{}, fmt.Errorf("features: vocabulary id %d cannot be compiled", id)
		}
		i := t.home(k)
		for t.slots[i].id != 0 {
			i = (i + 1) & uint64(size-1)
		}
		t.slots[i] = flatSlot[K]{key: k, id: int32(id)}
	}
	return t, nil
}

// home is k's first probe position (Fibonacci hashing).
func (t *flatTable[K]) home(k K) uint64 {
	return uint64(k) * 0x9E3779B97F4A7C15 >> t.shift
}

// get returns k's vocabulary id, or 0 if k is not in the vocabulary.
func (t *flatTable[K]) get(k K) int {
	if len(t.slots) == 0 {
		return 0
	}
	mask := uint64(len(t.slots) - 1)
	for i := t.home(k); ; i++ {
		s := &t.slots[i&mask]
		if s.id == 0 {
			return 0
		}
		if s.key == k {
			return int(s.id)
		}
	}
}
