package pipeline

import "videoplat/internal/quicproto"

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
// value is an empty index that allocates its map on the first put.
type cidIndex[V any] struct {
	m map[cidKey]V
	// lens is a bitmask of the CID lengths ever put. Short headers do not
	// carry their DCID length on the wire, so lookup tries each length the
	// tap has actually seen (a real deployment pins its own CID length; here
	// clients draw theirs per profile).
	lens uint32
}

func (x *cidIndex[V]) len() int { return len(x.m) }

// get resolves one wire CID; an empty or oversized one is never present.
func (x *cidIndex[V]) get(cid []byte) (v V, hit bool) {
	if ck, ok := mkCIDKey(cid); ok {
		v, hit = x.m[ck]
	}
	return v, hit
}

func (x *cidIndex[V]) put(ck cidKey, v V) {
	if x.m == nil {
		x.m = make(map[cidKey]V)
	}
	x.m[ck] = v
	x.lens |= 1 << uint(ck.n)
}

func (x *cidIndex[V]) delete(ck cidKey) { delete(x.m, ck) }

// lookup resolves a QUIC payload through the connection IDs it carries. A
// long header states its IDs, tried DCID then SCID; a short header carries
// only DCID bytes, probed at each length present, shortest first.
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
	for l := 1; l <= 20 && 1+l <= len(payload); l++ {
		if x.lens&(1<<uint(l)) != 0 {
			if v, hit = x.get(payload[1 : 1+l]); hit {
				return v, true
			}
		}
	}
	return v, false
}
