package pipeline

import (
	"net/netip"
	"reflect"
	"slices"
	"testing"
	"time"

	"videoplat/internal/features"
	"videoplat/internal/fingerprint"
	"videoplat/internal/flowtable"
	"videoplat/internal/packet"
	"videoplat/internal/quicproto"
	"videoplat/internal/tracegen"
)

// recycleFlows is a sequence of flows, each on its own tuple, that leaves
// behind every kind of handshake storage a pipeline keeps for reuse, and
// reuses it in every state: the largest hellos first, TCP and QUIC flows,
// ECH and 0-RTT flows, a hello split over two TLS records, a TCP and a QUIC
// hello delivered out of order, a QUIC hello whose parse fails on its first
// half and whose second half never comes, a TCP hello cut short, an
// oversized handshake and a non-video hello, then small hellos again. Each
// flow is its frames, client and server, in arrival order. name says which
// flow it is when a test fails.
func recycleFlows(t testing.TB) (name []string, flows [][][]byte) {
	t.Helper()
	add := func(n string, frames [][]byte) {
		name, flows = append(name, n), append(flows, frames)
	}
	render := func(seed uint64, label string, prov fingerprint.Provider, tr fingerprint.Transport, opts fingerprint.Options) [][]byte {
		return frameData(renderAdversarial(t, seed, label, prov, tr, opts))
	}
	g := tracegen.New(52)
	host := func(b byte) netip.Addr { return netip.AddrFrom4([4]byte{192, 168, 52, b}) }

	add("QUIC", render(1, "windows_chrome", fingerprint.YouTube, fingerprint.QUIC, fingerprint.Options{}))
	add("TCP", render(2, "windows_chrome", fingerprint.Netflix, fingerprint.TCP, fingerprint.Options{}))
	add("TCP ECH", render(3, "windows_chrome", fingerprint.Netflix, fingerprint.TCP, fingerprint.Options{ECH: true}))
	add("QUIC ECH", render(4, "android_chrome", fingerprint.YouTube, fingerprint.QUIC, fingerprint.Options{ECH: true}))
	add("QUIC 0-RTT", render(5, "android_chrome", fingerprint.YouTube, fingerprint.QUIC, fingerprint.Options{ZeroRTT: true}))
	add("TCP, hello in two records", frameData(g.TwoRecordHelloFlow(host(1))))

	tcp := newHelloFlight(t, renderAdversarial(t, 6, "macOS_chrome", fingerprint.YouTube, fingerprint.TCP, fingerprint.Options{}))
	k := len(tcp.hello) / 2
	add("TCP, second segment first", [][]byte{tcp.synFrame(), tcp.piece(k, len(tcp.hello)), tcp.piece(0, k)})
	quic := newHelloFlight(t, renderAdversarial(t, 7, "android_chrome", fingerprint.YouTube, fingerprint.QUIC, fingerprint.Options{}))
	k = len(quic.hello) / 2
	add("QUIC, second Initial first", quic.initials(t,
		[]quicproto.CryptoFrame{quic.cryptoAt(k, len(quic.hello))},
		[]quicproto.CryptoFrame{quic.cryptoAt(0, k)}))
	half := newHelloFlight(t, renderAdversarial(t, 8, "windows_edge", fingerprint.YouTube, fingerprint.QUIC, fingerprint.Options{}))
	add("QUIC, first half only", half.initials(t, []quicproto.CryptoFrame{half.cryptoAt(0, len(half.hello)/2)}))

	add("TCP, hello cut short", frameData(g.CutHelloFlow(host(2))))
	add("oversized", frameData(g.OversizedFlow(host(3))))
	add("not video", frameData(g.NotVideoFlow(host(4))))
	add("TCP, small hello", render(9, "iOS_safari", fingerprint.YouTube, fingerprint.TCP, fingerprint.Options{}))
	add("QUIC again", render(10, "android_nativeApp", fingerprint.YouTube, fingerprint.QUIC, fingerprint.Options{}))
	add("TCP, native app", render(11, "ps5_nativeApp", fingerprint.Amazon, fingerprint.TCP, fingerprint.Options{}))
	return name, flows
}

// frameData is a rendered flow's frames, client and server, in order.
func frameData(ft *tracegen.FlowTrace) [][]byte {
	var frames [][]byte
	for _, fr := range ft.Frames {
		frames = append(frames, fr.Data)
	}
	return frames
}

// clientData is a rendered flow's client frames, in order.
func clientData(ft *tracegen.FlowTrace) [][]byte {
	var frames [][]byte
	for _, fr := range ft.Frames {
		if fr.ClientToServer {
			frames = append(frames, fr.Data)
		}
	}
	return frames
}

// recycled is what one pipeline said of a flow: its finalized record and,
// when the classifier ran on a whole hello, the handshake's attributes as
// Config.OnClassify saw them.
type recycled struct {
	rec FlowRecord
	hs  *features.FieldValues
}

// TestRecycledAssemblyMatchesFresh is the reuse contract of asmScratch: a
// pipeline whose flows assemble into the stream buffers, hellos and
// transport parameters earlier flows gave back decides every flow as a
// fresh pipeline given that flow alone does, record for record and
// attribute for attribute. The recycling pipeline holds two flows at most,
// so flows are evicted, and give their storage back, mid-sequence, and it
// runs the sequence twice, the second time over storage the first left.
// FuzzShardedMatchesPipeline cannot see a leak from one flow into the next:
// both of its sides recycle.
func TestRecycledAssemblyMatchesFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a bank")
	}
	bank := goldenBank(t)
	names, flows := recycleFlows(t)
	start := time.Date(2023, 7, 7, 0, 0, 0, 0, time.UTC)
	run := func(maxFlows int, passes int, flows [][][]byte) []map[packet.FlowKey]recycled {
		var (
			out   []map[packet.FlowKey]recycled
			got   map[packet.FlowKey]recycled
			attrs map[packet.FlowKey]*features.FieldValues
		)
		p := NewWithConfig(bank, Config{
			MaxFlows:     maxFlows,
			ProviderHint: tracegen.ProviderOfAddr,
			helloCap:     1024, // over every hello here, under the oversized flow
			OnClassify: func(rec *FlowRecord, hs *features.HandshakeInfo) {
				attrs[rec.Key] = features.Extract(hs)
			},
			OnEvict: func(rec *FlowRecord, _ flowtable.Reason) {
				got[rec.Key] = recycled{rec: *rec, hs: attrs[rec.Key]}
			},
		})
		for range passes {
			got, attrs = map[packet.FlowKey]recycled{}, map[packet.FlowKey]*features.FieldValues{}
			for i, frames := range flows {
				for j, fr := range frames {
					p.HandlePacket(start.Add(time.Duration(i)*time.Second+time.Duration(j)*time.Millisecond), fr)
				}
			}
			p.Drain()
			out = append(out, got)
		}
		return out
	}

	fresh := map[packet.FlowKey]recycled{}
	name := map[packet.FlowKey]string{}
	verdicts := map[Verdict]bool{}
	for i := range flows {
		// Flow i alone, at the times it has in the sequence.
		alone := make([][][]byte, i+1)
		alone[i] = flows[i]
		got := run(0, 1, alone)[0]
		if len(got) != 1 {
			t.Fatalf("%s: %d records from one flow", names[i], len(got))
		}
		for key, r := range got {
			if _, dup := fresh[key]; dup {
				t.Fatalf("%s: the tuple of %s again", names[i], name[key])
			}
			fresh[key], name[key] = r, names[i]
			verdicts[r.rec.Verdict] = true
		}
	}
	for _, v := range []Verdict{VerdictClassified, VerdictAbstainedZeroRTT, VerdictNoHandshake, VerdictOversized, VerdictNotVideo} {
		if !verdicts[v] {
			t.Errorf("no flow of the sequence ends %s", v)
		}
	}

	for pass, got := range run(2, 2, flows) {
		if len(got) != len(fresh) {
			t.Errorf("pass %d: %d records, want %d", pass+1, len(got), len(fresh))
		}
		for key, want := range fresh {
			if r := got[key]; !reflect.DeepEqual(r, want) {
				t.Errorf("pass %d, %s: recycled storage decided\n%+v\nwant, as a fresh pipeline does,\n%+v", pass+1, name[key], r, want)
			}
		}
	}
}

// TestDecidedFlowAllocCeiling pins what a warm pipeline allocates for one
// decided TCP flow and one decided QUIC flow — SYN or Initial, hello, data,
// evicted — once finalized flows give their handshake storage back (amd64,
// Go 1.24): per flow its hot and cold records, its SNI string, the record
// HandlePacket returns and the one OnEvict is lent; for the QUIC flow the
// Initial's three cipher objects and its CID list, made at the size of its
// two IDs. No handshake store: that was 10 more.
func TestDecidedFlowAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a bank")
	}
	if raceEnabled {
		t.Skip("the race detector's instrumentation moves some of the flow path's values to the heap")
	}
	bank := goldenBank(t)
	var frames [][]byte
	for _, tr := range []fingerprint.Transport{fingerprint.TCP, fingerprint.QUIC} {
		ft, err := tracegen.New(52).Flow("windows_chrome", fingerprint.YouTube, tr, tracegen.FlowSpec{PayloadFrames: 2})
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frameData(ft)...)
	}
	classified := 0
	p := NewWithConfig(bank, Config{OnEvict: func(rec *FlowRecord, _ flowtable.Reason) {
		if rec.Verdict.ClassifierRan() {
			classified++
		}
	}})
	ts := time.Date(2023, 7, 7, 0, 0, 0, 0, time.UTC)
	flows := func() {
		for _, fr := range frames {
			p.HandlePacket(ts, fr)
		}
		p.Drain()
	}
	flows()
	if classified != 2 {
		t.Fatalf("%d of the 2 flows classified", classified)
	}
	const ceiling = 14
	if n := testing.AllocsPerRun(100, flows); n > ceiling {
		t.Errorf("a decided TCP and QUIC flow allocate %.1f, want <= %d", n, ceiling)
	}
}

// FuzzRecycledAssemblyMatchesFresh is TestRecycledAssemblyMatchesFresh in
// the order the input chooses: each byte picks a flow of recycleFlows, and
// one pipeline capped at two flows plays the picks, flow after flow, over
// the handshake stores the flows before it gave back. A flow picked again
// drains the pipeline first, since its tuple and connection IDs would join
// the live one. Each flow must be decided, record for record and attribute
// for attribute, as a fresh pipeline given that flow alone at the same
// times decides it. FuzzShardedMatchesPipeline cannot see a leak from one
// flow into the next: both of its sides recycle.
func FuzzRecycledAssemblyMatchesFresh(f *testing.F) {
	bank := goldenBank(f)
	names, flows := recycleFlows(f)
	var order, reversed []byte
	for i := range flows {
		order, reversed = append(order, byte(i)), append(reversed, byte(len(flows)-1-i))
	}
	f.Add(append(order, order...)) // the test's two passes
	f.Add(reversed)
	start := time.Date(2023, 7, 7, 0, 0, 0, 0, time.UTC)
	newPipeline := func(maxFlows int, got map[packet.FlowKey]recycled) *Pipeline {
		attrs := map[packet.FlowKey]*features.FieldValues{}
		return NewWithConfig(bank, Config{
			MaxFlows:     maxFlows,
			ProviderHint: tracegen.ProviderOfAddr,
			helloCap:     1024, // over every hello here, under the oversized flow
			OnClassify: func(rec *FlowRecord, hs *features.HandshakeInfo) {
				attrs[rec.Key] = features.Extract(hs)
			},
			OnEvict: func(rec *FlowRecord, _ flowtable.Reason) {
				got[rec.Key] = recycled{rec: *rec, hs: attrs[rec.Key]}
			},
		})
	}
	// play feeds flow i as the pos-th flow of a pass: at second pos, its
	// frames a millisecond apart.
	play := func(p *Pipeline, pos, i int) {
		for j, fr := range flows[i] {
			p.HandlePacket(start.Add(time.Duration(pos)*time.Second+time.Duration(j)*time.Millisecond), fr)
		}
	}

	f.Fuzz(func(t *testing.T, picks []byte) {
		got := map[packet.FlowKey]recycled{}
		p := newPipeline(2, got)
		var pass []int // the flows played since the last drain
		check := func() {
			p.Drain()
			n := 0
			for pos, i := range pass {
				want := map[packet.FlowKey]recycled{}
				fresh := newPipeline(0, want)
				play(fresh, pos, i)
				fresh.Drain()
				for key, w := range want {
					if r := got[key]; !reflect.DeepEqual(r, w) {
						t.Errorf("%s, flow %d of the pass: recycled storage decided\n%+v\nwant, as a fresh pipeline does,\n%+v", names[i], pos+1, r, w)
					}
				}
				n += len(want)
			}
			if len(got) != n {
				t.Errorf("%d records from a pass of %d flows, want %d", len(got), len(pass), n)
			}
			clear(got)
			pass = pass[:0]
		}
		for _, b := range picks[:min(len(picks), 4*len(flows))] {
			i := int(b) % len(flows)
			if slices.Contains(pass, i) {
				check()
			}
			play(p, len(pass), i)
			pass = append(pass, i)
		}
		check()
	})
}
