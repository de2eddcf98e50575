package main

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"math/rand/v2"
	"net/netip"
	"time"
)

// yardstick is the host-speed reference: one fixed single-threaded job,
// sampled beside every repetition of a timed phase. On a shared host the
// same binary runs up to a third slower for minutes at a time (compute-only
// code as much as memory-bound code, with steal time under 1 %: presumably
// neighbours on the cores' other hyperthreads); the yardstick slows with it,
// so a time scaled by the yardstick's says what the time would have been on
// the quiet reference host.
//
// It is frozen: this file, the Go standard library, and its own inputs from
// its own fixed seed. It calls nothing under videoplat/internal, so no
// change to the program moves it. Its job is a per-packet path in
// miniature — decode Ethernet/IPv4/TCP|UDP headers, build and canonicalize
// a flow key, look the flow up, move it to the front of an LRU list, count,
// copy the payload, and hash every sixteenth one — because a job with the
// program's kind of instruction mix is what slows the way the program does.
type yardstick struct {
	frames [][]byte
	flows  map[yardKey]*list.Element
	lru    *list.List
	arena  []byte
	sum    [sha256.Size]byte
	passes int // passes one sample runs
}

type yardKey struct {
	a, b  netip.AddrPort
	proto uint8
}

type yardFlow struct {
	key            yardKey
	packets, bytes int64
}

const (
	yardFlows  = 1024
	yardFrames = 8192
	// yardRefNS is the yardstick's nanoseconds per frame on the reference
	// host (the two-core sandbox the baselines were taken on) when no
	// neighbour contends: the unit every scaled time is expressed in.
	yardRefNS = 130.0
)

func newYardstick(passes int) *yardstick {
	rng := rand.New(rand.NewPCG(0x79617264, 0x737469636b)) // "yard", "stick"
	y := &yardstick{flows: make(map[yardKey]*list.Element, yardFlows), lru: list.New(), arena: make([]byte, 2048), passes: passes}
	type tuple struct {
		src, dst     [4]byte
		sport, dport uint16
		proto        uint8
	}
	tuples := make([]tuple, yardFlows)
	for i := range tuples {
		t := &tuples[i]
		binary.BigEndian.PutUint32(t.src[:], 0x0a000000|rng.Uint32N(1<<24))
		binary.BigEndian.PutUint32(t.dst[:], 0xc6336400|rng.Uint32N(1<<8))
		t.sport, t.dport, t.proto = uint16(1024+rng.UintN(60000)), 443, 6
		if i%2 == 1 {
			t.proto = 17
		}
	}
	for i := 0; i < yardFrames; i++ {
		t := tuples[rng.IntN(len(tuples))]
		payload := 1400
		if i%3 == 2 { // a bare acknowledgement after every second data frame, travelling the other way
			payload = 0
			t.src, t.dst, t.sport, t.dport = t.dst, t.src, t.dport, t.sport
		}
		l4 := 20
		if t.proto == 17 {
			l4 = 8
		}
		f := make([]byte, 14+20+l4+payload)
		binary.BigEndian.PutUint16(f[12:], 0x0800)
		ip := f[14:]
		ip[0], ip[8], ip[9] = 0x45, 62, t.proto
		binary.BigEndian.PutUint16(ip[2:], uint16(20+l4+payload))
		copy(ip[12:16], t.src[:])
		copy(ip[16:20], t.dst[:])
		binary.BigEndian.PutUint16(ip[20:], t.sport)
		binary.BigEndian.PutUint16(ip[22:], t.dport)
		if t.proto == 6 {
			ip[32] = 5 << 4 // data offset
		}
		for j := 14 + 20 + l4; j < len(f); j += 8 {
			f[j] = byte(rng.Uint32())
		}
		y.frames = append(y.frames, f)
	}
	y.pass() // every flow is in the table from here on
	return y
}

// pass runs the job over every frame once.
func (y *yardstick) pass() {
	for i, f := range y.frames {
		if len(f) < 14+20+8 || binary.BigEndian.Uint16(f[12:]) != 0x0800 {
			continue
		}
		ip := f[14:]
		ihl := int(ip[0]&0x0f) * 4
		total := int(binary.BigEndian.Uint16(ip[2:]))
		if ip[0]>>4 != 4 || ihl < 20 || total > len(ip) || total < ihl+8 {
			continue
		}
		proto := ip[9]
		l4 := ip[ihl:total]
		hdr := 8
		if proto == 6 {
			if len(l4) < 20 {
				continue
			}
			hdr = int(l4[12]>>4) * 4
		}
		if hdr > len(l4) {
			continue
		}
		src := netip.AddrPortFrom(netip.AddrFrom4([4]byte(ip[12:16])), binary.BigEndian.Uint16(l4[0:]))
		dst := netip.AddrPortFrom(netip.AddrFrom4([4]byte(ip[16:20])), binary.BigEndian.Uint16(l4[2:]))
		key := yardKey{src, dst, proto}
		if dst.Compare(src) < 0 {
			key.a, key.b = dst, src
		}
		el, ok := y.flows[key]
		if !ok {
			el = y.lru.PushFront(&yardFlow{key: key})
			y.flows[key] = el
		} else {
			y.lru.MoveToFront(el)
		}
		fl := el.Value.(*yardFlow)
		payload := l4[hdr:]
		fl.packets++
		fl.bytes += int64(len(payload))
		copy(y.arena, payload)
		if i%16 == 0 {
			y.sum = sha256.Sum256(y.arena[:256])
		}
	}
}

// sample runs the job y.passes times and returns the nanoseconds one frame
// took.
func (y *yardstick) sample() float64 {
	t0 := time.Now()
	for i := 0; i < y.passes; i++ {
		y.pass()
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(y.passes*len(y.frames))
}
