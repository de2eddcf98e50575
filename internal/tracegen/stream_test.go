package tracegen

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"sort"
	"testing"
	"time"

	"videoplat/internal/fingerprint"
	"videoplat/internal/pcap"
)

// TestStreamBytesPinned pins the synthetic session stream byte for byte: the
// captures cmd/vpgen writes (the first is the one behind
// docs/repro/classify.txt) and the drifting, adversarial stream vpserve
// -synth replays.
func TestStreamBytesPinned(t *testing.T) {
	captures := []struct {
		cfg  StreamConfig
		want string
	}{
		{StreamConfig{Seed: 5, Sessions: 20},
			"cf77ff7bca74f4b59365a96ec0168ea9201cafa34f661b770a4bb86c0ea724c7"},
		{StreamConfig{Seed: 3, Sessions: 10, Providers: []fingerprint.Provider{fingerprint.Netflix}},
			"3b59f2e013be0608bfca03f719a06c2ee8f2d82d8e291b2e76751adb8021fda5"},
		{StreamConfig{Seed: 3, Sessions: 10, Platform: "iOS_nativeApp", Providers: []fingerprint.Provider{fingerprint.Amazon}},
			"499e2054cec48053678af04afd797638feb6c3bca631a350261c99d9d0411a15"},
	}
	for _, c := range captures {
		var buf bytes.Buffer
		if _, err := NewStream(c.cfg).WritePCAP(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != c.want {
			t.Errorf("%+v: capture sha256 %s, want %s", c.cfg, got, c.want)
		}
	}

	s := NewStream(StreamConfig{Seed: 7, Sessions: 60, DriftAfter: 20, Adversarial: 0.5})
	h := sha256.New()
	n := 0
	for ; ; n++ {
		pkt, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		var hdr [16]byte
		binary.BigEndian.PutUint64(hdr[:], uint64(pkt.Timestamp.UnixNano()))
		binary.BigEndian.PutUint64(hdr[8:], uint64(len(pkt.Data)))
		h.Write(hdr[:])
		h.Write(pkt.Data)
	}
	const want = "10cdb763c7b3a865465e49fdb9b949eacd16f0f13dbc86a135e14f389a1554fb"
	if got := hex.EncodeToString(h.Sum(nil)); n != 1659 || got != want {
		t.Errorf("drifting adversarial stream: %d packets, sha256 %s; want 1659, %s", n, got, want)
	}
}

// TestStreamUnsupportedPair checks that a fixed platform which does not
// serve the drawn provider fails with ErrUnsupported.
func TestStreamUnsupportedPair(t *testing.T) {
	for _, label := range fingerprint.AllPlatformLabels() {
		for _, prov := range fingerprint.AllProviders() {
			if fingerprint.SupportMatrix(label, prov) {
				continue
			}
			s := NewStream(StreamConfig{Seed: 1, Sessions: 1, Platform: label, Providers: []fingerprint.Provider{prov}})
			if _, err := s.Next(); !errors.Is(err, ErrUnsupported) {
				t.Fatalf("%s/%s: Next() error %v, want ErrUnsupported", label, prov, err)
			}
			return
		}
	}
	t.Skip("every platform supports every provider")
}

// TestStreamPlatformDrawsSupportedProviders checks that a fixed platform
// with no provider list draws only providers it serves: 50 sessions of
// every platform render with no ErrUnsupported, whatever the seed draws.
func TestStreamPlatformDrawsSupportedProviders(t *testing.T) {
	for _, label := range fingerprint.AllPlatformLabels() {
		s := NewStream(StreamConfig{Seed: 2, Sessions: 50, Platform: label})
		for {
			_, err := s.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
		}
		if s.Flows() < 50 {
			t.Errorf("%s: %d flows from 50 sessions", label, s.Flows())
		}
	}
}

// TestMergeByTimeMatchesStableSort pins the Stream's merge contract: merging
// each session's (stably) sorted frames into the already-sorted queue must
// reproduce exactly what a full-queue sort.SliceStable produced —
// queue-before-session on timestamp ties, session frames in append order —
// so Next() output stays byte-identical for a fixed seed.
func TestMergeByTimeMatchesStableSort(t *testing.T) {
	base := time.Date(2023, 7, 7, 12, 0, 0, 0, time.UTC)
	rng := rand.New(rand.NewPCG(42, 0))
	for trial := 0; trial < 50; trial++ {
		// Sorted queue with deliberate duplicate timestamps; OrigLen tags
		// each packet's identity so ordering of ties is observable.
		id := 0
		mk := func(sec int) pcap.Packet {
			id++
			return pcap.Packet{Timestamp: base.Add(time.Duration(sec) * time.Second), OrigLen: id}
		}
		var queue []pcap.Packet
		for sec := 0; len(queue) < trial%17; sec += rng.IntN(2) {
			queue = append(queue, mk(sec))
		}
		var session []pcap.Packet
		for n := 0; n < trial%13; n++ {
			session = append(session, mk(rng.IntN(10)))
		}

		before := func(s []pcap.Packet) func(i, j int) bool {
			return func(i, j int) bool { return s[i].Timestamp.Before(s[j].Timestamp) }
		}
		// Reference: the old implementation — append, then stable-sort all.
		want := append(append([]pcap.Packet{}, queue...), session...)
		sort.SliceStable(want, before(want))

		got := append([]pcap.Packet{}, session...)
		sort.SliceStable(got, before(got))
		got = mergeByTime(append([]pcap.Packet{}, queue...), got)

		if len(got) != len(want) {
			t.Fatalf("trial %d: merged %d packets, want %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].OrigLen != want[i].OrigLen {
				t.Fatalf("trial %d: order diverges at %d: packet %d, want %d",
					trial, i, got[i].OrigLen, want[i].OrigLen)
			}
		}
	}
}

// TestSynthSourceDeterministicAndFinite pins the synthetic source contract.
func TestSynthSourceDeterministicAndFinite(t *testing.T) {
	count := func() (int, string) {
		src := NewStream(StreamConfig{Seed: 11, Sessions: 3})
		n := 0
		var sig string
		var prev time.Time
		for {
			pkt, err := src.Next()
			if err == io.EOF {
				return n, sig
			}
			if err != nil {
				t.Fatal(err)
			}
			if pkt.Timestamp.Before(prev) {
				t.Fatalf("timestamp regression at packet %d: %s after %s", n, pkt.Timestamp, prev)
			}
			prev = pkt.Timestamp
			n++
			if n <= 3 {
				sig += fmt.Sprintf("%d@%s;", len(pkt.Data), pkt.Timestamp)
			}
		}
	}
	n1, sig1 := count()
	n2, sig2 := count()
	if n1 == 0 || n1 != n2 || sig1 != sig2 {
		t.Errorf("source not deterministic: %d/%d packets, %q vs %q", n1, n2, sig1, sig2)
	}
}
