package pipeline

import (
	"maps"

	"videoplat/internal/quicproto"
)

// cidKey is a QUIC connection ID as a map key: fixed array plus length, so
// indexing allocates nothing.
type cidKey struct {
	n uint8
	b [20]byte
}

// mkCIDKey converts a wire CID. ok is false for empty or oversized IDs,
// which are never worth indexing.
func mkCIDKey(cid []byte) (cidKey, bool) {
	if len(cid) == 0 || len(cid) > 20 {
		return cidKey{}, false
	}
	k := cidKey{n: uint8(len(cid))}
	copy(k.b[:], cid)
	return k, true
}

// cidIndex maps the QUIC connection IDs a tap has observed to what owns
// them: the canonical key of the live flow in a Pipeline, the shard holding
// that flow at a Sharded's ingest. Not safe for concurrent use; the zero
// value is an empty, unbounded index that allocates its map on the first
// put.
type cidIndex[V any] struct {
	m generations[cidKey, V]
	// lens is a bitmask of the CID lengths ever put. Short headers do not
	// carry their DCID length on the wire, so lookup tries each length the
	// tap has actually seen (a real deployment pins its own CID length; here
	// clients draw theirs per profile).
	lens uint32
}

func (x *cidIndex[V]) len() int { return x.m.len() }

// get resolves one wire CID; an empty or oversized one is never present.
func (x *cidIndex[V]) get(cid []byte) (v V, hit bool) {
	if ck, ok := mkCIDKey(cid); ok {
		v, hit = x.m.get(ck)
	}
	return v, hit
}

func (x *cidIndex[V]) put(ck cidKey, v V) {
	x.m.put(ck, v)
	x.lens |= 1 << uint(ck.n)
}

func (x *cidIndex[V]) delete(ck cidKey) { x.m.delete(ck) }

// lookup resolves a QUIC payload through the connection IDs it carries. A
// long header states its IDs, tried DCID then SCID; a short header carries
// only DCID bytes, probed at each length present, shortest first — in the
// current generation at every length before the previous one at any, since
// these probes run for every short header a tap sees and nearly all miss.
func (x *cidIndex[V]) lookup(payload []byte) (v V, hit bool) {
	if quicproto.IsLongHeader(payload) {
		ids, err := quicproto.ParseLongHeaderCIDs(payload)
		if err != nil {
			return v, false
		}
		if v, hit = x.get(ids.DCID); !hit {
			v, hit = x.get(ids.SCID)
		}
		return v, hit
	}
	for gen, m := range [2]map[cidKey]V{x.m.cur, x.m.prev} {
		if len(m) == 0 {
			continue
		}
		for l := 1; l <= 20 && 1+l <= len(payload); l++ {
			if x.lens&(1<<uint(l)) == 0 {
				continue
			}
			ck, _ := mkCIDKey(payload[1 : 1+l]) // 1 <= l <= 20 always converts
			if v, hit = m[ck]; hit {
				if gen == 1 {
					x.m.put(ck, v) // a hit in the previous generation is refreshed, as get does
				}
				return v, true
			}
		}
	}
	return v, false
}

// generations is a map that, given a bound, forgets by age instead of
// refusing to learn. A put goes into the current generation; when that
// already holds bound entries, the previous generation is dropped and the
// current one becomes the previous. get tries the current generation, then
// the previous, and re-puts a hit from the previous, so an entry still in
// use outlives every rotation while one unused for two generations is gone,
// and the map never holds more than 2×bound entries. Rotation recycles the
// dropped generation's map, so it allocates nothing once both exist. A zero
// bound never rotates: the map is authoritative and its owner deletes what
// it retires. A swiss map does not reuse the tombstones deletes leave, and
// grows to make room instead, so once deletes since the last rebuild exceed
// max(len, minRebuild) the live entries move into a fresh map sized to them.
type generations[K comparable, V any] struct {
	cur, prev map[K]V
	bound     int
	deletes   int
}

// minRebuild keeps a small map from being rebuilt every few deletes.
const minRebuild = 1024

func (g *generations[K, V]) len() int { return len(g.cur) + len(g.prev) }

func (g *generations[K, V]) get(k K) (V, bool) {
	v, ok := g.cur[k]
	if !ok && len(g.prev) > 0 {
		if v, ok = g.prev[k]; ok {
			g.put(k, v)
		}
	}
	return v, ok
}

func (g *generations[K, V]) put(k K, v V) {
	if g.bound > 0 && len(g.cur) >= g.bound {
		clear(g.prev)
		g.cur, g.prev = g.prev, g.cur
	}
	if g.cur == nil {
		g.cur = make(map[K]V)
	}
	g.cur[k] = v
}

func (g *generations[K, V]) delete(k K) {
	delete(g.cur, k)
	delete(g.prev, k)
	if g.deletes++; g.deletes > max(g.len(), minRebuild) {
		g.deletes = 0
		g.cur = maps.Clone(g.cur)
		g.prev = maps.Clone(g.prev)
	}
}
