package pipeline

import (
	"runtime"
	"testing"

	"videoplat/internal/packet"
)

func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// churnCID returns the c-th connection ID of the f-th flow.
func churnCID(f, c int) cidKey {
	k := cidKey{n: 8}
	k.b[0], k.b[1], k.b[2], k.b[3], k.b[4] = byte(f>>24), byte(f>>16), byte(f>>8), byte(f), byte(c)
	return k
}

// TestChurnedCIDIndexStaysSmall pins that Pipeline's CID index is sized by
// the flows it holds at once, not by how many pass through it. It is the one
// unbounded generations map, and every evicted QUIC flow deletes its IDs
// from it; under Go 1.24 a swiss map does not reuse those tombstones in
// place, so without a rebuild the map grows several times over on churn
// (4.4× for 750 live flows here). Each flow registers three IDs, and 2×10^5
// flows pass through an index holding a fixed number of live ones; its live
// heap must stay within 1.25× of its first fill.
func TestChurnedCIDIndexStaysSmall(t *testing.T) {
	if raceEnabled {
		t.Skip("heap accounting under the race detector is not the map's")
	}
	const flows, perFlow = 200_000, 3
	for _, live := range []int{750, 32_768} {
		var x cidIndex[packet.FlowKey]
		put := func(f int) {
			for c := 0; c < perFlow; c++ {
				x.put(churnCID(f, c), packet.FlowKey{SrcPort: uint16(f)})
			}
		}
		base := liveHeap()
		for f := 0; f < live; f++ {
			put(f)
		}
		filled := liveHeap() - base
		for f := live; f < live+flows; f++ {
			for c := 0; c < perFlow; c++ {
				x.delete(churnCID(f-live, c))
			}
			put(f)
		}
		grew := float64(liveHeap()-base) / float64(filled)
		runtime.KeepAlive(&x)
		if x.len() != perFlow*live {
			t.Fatalf("%d live flows: index holds %d IDs, want %d", live, x.len(), perFlow*live)
		}
		if grew > 1.25 {
			t.Errorf("%d live flows: CID index heap grew %.2f× under churn, want <= 1.25×", live, grew)
		}
		t.Logf("%d live flows: CID index heap %.2f× its first fill", live, grew)
	}
}
