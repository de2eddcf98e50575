package telemetry

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

// mapConfidenceHist is the map-based confidence histogram ConfidenceHist
// replaced, kept as the oracle FuzzConfidenceHistMatchesMapModel checks it
// against: a sparse map from bucket to count, encoded by encoding/json as
// it stands.
type mapConfidenceHist struct {
	Count   uint64         `json:"count"`
	Sum     float64        `json:"sum"`
	Buckets map[int]uint64 `json:"buckets,omitempty"`
}

func (h *mapConfidenceHist) Observe(v float64) {
	h.Count++
	h.Sum += v
	if h.Buckets == nil {
		h.Buckets = make(map[int]uint64)
	}
	h.Buckets[confBucket(v)]++
}

func (h *mapConfidenceHist) Merge(src *mapConfidenceHist) {
	if src == nil || src.Count == 0 {
		return
	}
	h.Count += src.Count
	h.Sum += src.Sum
	if h.Buckets == nil {
		h.Buckets = make(map[int]uint64, len(src.Buckets))
	}
	for b, n := range src.Buckets {
		h.Buckets[b] += n
	}
}

func (h *mapConfidenceHist) Quantile(q float64) float64 {
	if h == nil || h.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(q * float64(h.Count))
	if rank >= h.Count {
		rank = h.Count - 1
	}
	var seen uint64
	for b := 0; b < NumConfidenceBuckets; b++ {
		seen += h.Buckets[b]
		if seen > rank {
			return float64(b+1) / NumConfidenceBuckets
		}
	}
	return 1
}

func (h *mapConfidenceHist) Mean() float64 {
	if h == nil || h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// checkConfidenceMatches fails unless h and m agree on every reading and on
// their encoded bytes.
func checkConfidenceMatches(t *testing.T, step int, h *ConfidenceHist, m *mapConfidenceHist) {
	t.Helper()
	if h.Count != m.Count || math.Float64bits(h.Sum) != math.Float64bits(m.Sum) ||
		math.Float64bits(h.Mean()) != math.Float64bits(m.Mean()) {
		t.Fatalf("step %d: count/sum/mean %d/%v/%v, model %d/%v/%v", step, h.Count, h.Sum, h.Mean(), m.Count, m.Sum, m.Mean())
	}
	for _, q := range []float64{-1, 0, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1, 2} {
		if got, want := h.Quantile(q), m.Quantile(q); got != want {
			t.Fatalf("step %d: Quantile(%v) = %v, model %v", step, q, got, want)
		}
	}
	got, err := json.Marshal(h)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("step %d: encodes as\n%s\nmodel\n%s", step, got, want)
	}
}

// FuzzConfidenceHistMatchesMapModel runs a byte-driven sequence of Observe
// (values across and just outside [0, 1], bucket edges included), Merge,
// Clone (a merge into an empty histogram, as Window.Clone copies one) and
// JSON round trips over three histograms and their map models, and
// requires both to agree after every step.
func FuzzConfidenceHistMatchesMapModel(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 1, 0xff, 0xff})
	f.Add([]byte("\x00\x01\x10\x00\x00\x02\x20\x40\x01\x04\x02\x01\x03\x00\x04\x02"))
	f.Add(bytes.Repeat([]byte{0, 5, 0x33, 0x93, 1, 0x21, 3, 2, 0, 0x82, 0x7f, 0x01}, 6))
	f.Fuzz(func(t *testing.T, ops []byte) {
		var h [3]*ConfidenceHist
		var m [3]*mapConfidenceHist
		for i := range h {
			h[i], m[i] = &ConfidenceHist{}, &mapConfidenceHist{}
		}
		for step := 0; len(ops) >= 2; step++ {
			op, arg := ops[0], ops[1]
			ops = ops[2:]
			a, b := int(arg&3)%3, int(arg>>2&3)%3
			switch op % 5 {
			case 0: // Observe: an exact bucket edge, or any value in [-0.25, 1.25)
				var raw [2]byte
				ops = ops[copy(raw[:], ops):]
				u := binary.LittleEndian.Uint16(raw[:])
				v := float64(u)/65536*1.5 - 0.25
				if arg&0x80 != 0 {
					v = float64(int(u)%(NumConfidenceBuckets+3)-1) / NumConfidenceBuckets
				}
				h[a].Observe(v)
				m[a].Observe(v)
			case 1: // Merge b into a, itself included
				h[a].Merge(h[b])
				m[a].Merge(m[b])
			case 2: // Clone b into a
				hc, mc := &ConfidenceHist{}, &mapConfidenceHist{}
				hc.Merge(h[b])
				mc.Merge(m[b])
				h[a], m[a] = hc, mc
			case 3: // JSON round trip of a: each side decodes its own bytes
				raw, err := json.Marshal(h[a])
				if err != nil {
					t.Fatal(err)
				}
				h[a] = &ConfidenceHist{}
				if err := json.Unmarshal(raw, h[a]); err != nil {
					t.Fatal(err)
				}
				if raw, err = json.Marshal(m[a]); err != nil {
					t.Fatal(err)
				}
				m[a] = &mapConfidenceHist{}
				if err := json.Unmarshal(raw, m[a]); err != nil {
					t.Fatal(err)
				}
			case 4: // Merge nil and an empty histogram: no-ops
				h[a].Merge(nil)
				h[a].Merge(&ConfidenceHist{})
				m[a].Merge(nil)
				m[a].Merge(&mapConfidenceHist{})
			}
			checkConfidenceMatches(t, step, h[a], m[a])
		}
		for i := range h {
			checkConfidenceMatches(t, -1, h[i], m[i])
		}
	})
}

// TestReloadDropsCorruptBucketKeys reloads a hand-written archive line whose
// digests hold bucket indices outside their layouts: negative, past
// obs.NumBuckets, past NumConfidenceBuckets. Decoding drops those buckets
// and keeps count and sum as written, so no tier carries them into a
// merged window and re-encoding writes only the valid buckets.
func TestReloadDropsCorruptBucketKeys(t *testing.T) {
	line := `{"start":"2023-07-07T12:00:00Z","end":"2023-07-07T12:01:00Z","flows":9,"classified_flows":9,"classification_rate":1,` +
		`"by_provider":{"youtube":{"flows":9,"classified_flows":9,"watch_seconds":90,"bytes_down":900,"bytes_up":9,"mean_mbps_down":0.00008,"peak_mbps_down":0.0001,` +
		`"confidence":{"count":9,"sum":7.5,"buckets":{"-1":2,"17":4,"19":3,"20":5,"400":1}}}},` +
		`"latency":{"count":9,"sum_ns":90000,"max_ns":20000,"buckets":{"-3":1,"600":6,"640":3,"1152":4,"70000":2}}}`
	s := NewStore(StoreConfig{Tiers: []time.Duration{10 * time.Minute}})
	if n, err := s.Reload(strings.NewReader(line + "\n")); err != nil || n != 1 {
		t.Fatalf("reload: %d windows, %v", n, err)
	}
	const (
		wantConf    = `"confidence":{"count":9,"sum":7.5,"buckets":{"17":4,"19":3}}`
		wantLatency = `"latency":{"count":9,"sum_ns":90000,"max_ns":20000,"buckets":{"600":6,"640":3}}`
	)
	for _, width := range []time.Duration{0, 10 * time.Minute} {
		wins, _, err := s.Windows(time.Time{}, time.Time{}, width, 0)
		if err != nil || len(wins) != 1 {
			t.Fatalf("tier %v: %d windows, %v", width, len(wins), err)
		}
		raw, err := json.Marshal(wins[0])
		if err != nil {
			t.Fatal(err)
		}
		for _, want := range []string{wantConf, wantLatency} {
			if !bytes.Contains(raw, []byte(want)) {
				t.Errorf("tier %v re-encodes as\n%s\nwant it to hold %s", width, raw, want)
			}
		}
	}
	// Quantiles read the valid buckets against the count as written.
	res, err := s.Query(time.Time{}, time.Time{}, 0, GroupTotal)
	if err != nil {
		t.Fatal(err)
	}
	if p := res.Series[0].Points[0]; p.ConfidenceCount != 9 || p.ConfidenceP10 != 0.9 || p.ConfidenceP50 != 1 || p.LatencyCount != 9 {
		t.Errorf("query point %+v", p)
	}
}
