package pcap

import (
	"bytes"
	"encoding/binary"
	"runtime/metrics"
	"testing"
	"time"
)

// heapAllocBytes is the cumulative count of bytes allocated on the heap.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// testFrames are n frames of assorted lengths, 60 to 1514 bytes, each filled
// with a pattern of its own.
func testFrames(n int) [][]byte {
	frames := make([][]byte, n)
	for i := range frames {
		f := make([]byte, 60+(i*331)%1455)
		for j := range f {
			f[j] = byte(i + j)
		}
		frames[i] = f
	}
	return frames
}

// writeBoth renders frames as a classic and as a pcapng capture.
func writeBoth(t testing.TB, frames [][]byte) (classic, ng []byte) {
	var cb, nb bytes.Buffer
	cw, err := NewWriter(&cb, 0)
	if err != nil {
		t.Fatal(err)
	}
	nw, err := NewNGWriter(&nb, 0)
	if err != nil {
		t.Fatal(err)
	}
	ts := time.Date(2023, 7, 7, 12, 0, 0, 0, time.UTC)
	for i, f := range frames {
		if err := cw.WritePacket(ts.Add(time.Duration(i)*time.Millisecond), f); err != nil {
			t.Fatal(err)
		}
		if err := nw.WritePacket(ts.Add(time.Duration(i)*time.Millisecond), f); err != nil {
			t.Fatal(err)
		}
	}
	return cb.Bytes(), nb.Bytes()
}

// FuzzReaders feeds arbitrary bytes to the format sniffer and whichever
// reader it picks. Neither reader may panic, a hostile length field may cost
// at most the sanity bound in memory rather than what it claims, and every
// frame handed out must still hold the bytes it was handed out with after
// the reader has moved on past it: the pcapng reader reuses its block
// scratch, and must copy a packet out of it.
func FuzzReaders(f *testing.F) {
	classic, ng := writeBoth(f, append(testFrames(5), []byte{}, []byte{0xaa}))
	for _, raw := range [][]byte{classic, ng} {
		f.Add(raw)
		for _, cut := range []int{3, 30, 41, len(raw) - 9, len(raw) - 3} {
			f.Add(raw[:cut])
		}
	}
	f.Add(classicFile(0x80000000, 1<<30, nil))
	f.Add(classicFile(0xffffffff, 4, []byte{1, 2, 3, 4}))
	f.Add(tsResolFile(0x80|64, 5_000_001))
	f.Add(tsResolFile(12, 10_000_123_456_789_012))
	// pcapng with an unknown block after the section and interface headers,
	// then an empty big-endian section, then the little-endian file again.
	le, be := binary.LittleEndian, binary.BigEndian
	multi := append([]byte{}, ng[:48]...)
	multi = le.AppendUint32(le.AppendUint32(le.AppendUint32(multi, 4), 16), 0)
	multi = append(le.AppendUint32(multi, 16), ng[48:]...)
	multi = be.AppendUint32(be.AppendUint32(be.AppendUint32(multi, blockSectionHeader), 28), byteOrderMagic)
	multi = be.AppendUint32(be.AppendUint32(be.AppendUint32(multi, 1<<16), 0xffffffff), 0xffffffff)
	f.Add(append(be.AppendUint32(multi, 28), ng...))

	f.Fuzz(func(t *testing.T, raw []byte) {
		before := heapAllocBytes()
		r, err := OpenReader(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var kept, want [][]byte
		for {
			pkt, err := r.Next()
			if err != nil {
				break
			}
			kept = append(kept, pkt.Data)
			want = append(want, bytes.Clone(pkt.Data))
		}
		// The readers' share: the frame copies and the pcapng block scratch,
		// each at most the input's bytes, plus one refused record; the rest
		// is this function's own bookkeeping and the allocator's accounting
		// granularity.
		if grew, bound := heapAllocBytes()-before, uint64(maxRecordLen+1<<20+64*len(raw)); grew > bound {
			t.Fatalf("%d input bytes allocated %d bytes, over the %d bound", len(raw), grew, bound)
		}
		for i := range kept {
			if !bytes.Equal(kept[i], want[i]) {
				t.Fatalf("frame %d of %d changed after later reads", i, len(kept))
			}
		}
	})
}
