package obs

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"testing"
	"time"
)

// mapSummary is the map-based latency digest Summary replaced, kept as the
// oracle FuzzSummaryMatchesMapModel checks it against: a sparse map from
// bucket index to count, encoded by encoding/json as it stands.
type mapSummary struct {
	Count   uint64         `json:"count"`
	SumNS   int64          `json:"sum_ns"`
	MaxNS   int64          `json:"max_ns"`
	Buckets map[int]uint64 `json:"buckets,omitempty"`
}

func (s *mapSummary) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	if s.Buckets == nil {
		s.Buckets = make(map[int]uint64)
	}
	s.Buckets[bucketIndex(ns)]++
	s.Count++
	s.SumNS += ns
	if ns > s.MaxNS {
		s.MaxNS = ns
	}
}

func (s *mapSummary) Merge(other *mapSummary) {
	if other == nil || other.Count == 0 {
		return
	}
	if s.Buckets == nil {
		s.Buckets = make(map[int]uint64, len(other.Buckets))
	}
	for i, c := range other.Buckets {
		s.Buckets[i] += c
	}
	s.Count += other.Count
	s.SumNS += other.SumNS
	if other.MaxNS > s.MaxNS {
		s.MaxNS = other.MaxNS
	}
}

func (s *mapSummary) Quantile(q float64) time.Duration {
	if s == nil || s.Count == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var counts [NumBuckets]uint64
	for i, c := range s.Buckets {
		if i >= 0 && i < NumBuckets {
			counts[i] = c
		}
	}
	var cum uint64
	for i, c := range counts {
		if cum += c; cum >= rank {
			ub := BucketUpperBound(i)
			if ub > s.MaxNS && s.MaxNS > 0 {
				ub = s.MaxNS
			}
			return time.Duration(ub)
		}
	}
	return time.Duration(s.MaxNS)
}

func (s *mapSummary) Mean() time.Duration {
	if s == nil || s.Count == 0 {
		return 0
	}
	return time.Duration(s.SumNS / int64(s.Count))
}

// bucketCounts lists a summary's buckets as the map the wire form holds.
func bucketCounts(s *Summary) map[int]uint64 {
	m := map[int]uint64{}
	for _, b := range s.buckets {
		m[int(b>>countBits)] = b & countMask
	}
	return m
}

// modelQuantiles are the quantiles the model comparison checks.
var modelQuantiles = []float64{0, 0.001, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1}

// checkSummaryMatches fails unless s and m agree on every reading and on
// their encoded bytes.
func checkSummaryMatches(t *testing.T, step int, s *Summary, m *mapSummary) {
	t.Helper()
	if s.Count != m.Count || s.SumNS != m.SumNS || s.MaxNS != m.MaxNS || s.Mean() != m.Mean() {
		t.Fatalf("step %d: count/sum/max/mean %d/%d/%d/%v, model %d/%d/%d/%v",
			step, s.Count, s.SumNS, s.MaxNS, s.Mean(), m.Count, m.SumNS, m.MaxNS, m.Mean())
	}
	for _, q := range modelQuantiles {
		if got, want := s.Quantile(q), m.Quantile(q); got != want {
			t.Fatalf("step %d: Quantile(%v) = %v, model %v", step, q, got, want)
		}
	}
	for i := 1; i < len(s.buckets); i++ {
		if s.buckets[i-1]>>countBits >= s.buckets[i]>>countBits {
			t.Fatalf("step %d: buckets out of order at %d", step, i)
		}
	}
	got, err := json.Marshal(s)
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

// FuzzSummaryMatchesMapModel runs a byte-driven sequence of Observe, Merge,
// Clone (a merge into an empty summary, as telemetry.Window.Clone copies
// one) and JSON round trips over three summaries and their map models, and
// requires both to agree after every step.
func FuzzSummaryMatchesMapModel(f *testing.F) {
	f.Add([]byte{0, 0, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte("\x00\x01\xff\xff\xff\xff\xff\xff\xff\x7f\x04\x01\x00\x00\x00\x00\x00\x00\x00\x00\x01\x10\x02\x01\x03\x00"))
	f.Add(bytes.Repeat([]byte{0, 2, 0x40, 0x42, 0x0f, 0, 0, 0, 0, 0, 1, 0x21, 3, 2}, 8))
	f.Fuzz(func(t *testing.T, ops []byte) {
		var s [3]*Summary
		var m [3]*mapSummary
		for i := range s {
			s[i], m[i] = &Summary{}, &mapSummary{}
		}
		for step := 0; len(ops) >= 2; step++ {
			op, arg := ops[0], ops[1]
			ops = ops[2:]
			a, b := int(arg&3)%3, int(arg>>2&3)%3
			switch op % 5 {
			case 0: // Observe a duration of any magnitude, negative too
				var raw [8]byte
				ops = ops[copy(raw[:], ops):]
				d := time.Duration(binary.LittleEndian.Uint64(raw[:])) >> (arg >> 4 * 4)
				s[a].Observe(d)
				m[a].Observe(d)
			case 1: // Merge b into a, itself included
				s[a].Merge(s[b])
				m[a].Merge(m[b])
			case 2: // Clone b into a
				sc, mc := &Summary{}, &mapSummary{}
				sc.Merge(s[b])
				mc.Merge(m[b])
				s[a], m[a] = sc, mc
			case 3: // JSON round trip of a: each side decodes its own bytes
				raw, err := json.Marshal(s[a])
				if err != nil {
					t.Fatal(err)
				}
				s[a] = &Summary{}
				if err := json.Unmarshal(raw, s[a]); err != nil {
					t.Fatal(err)
				}
				if raw, err = json.Marshal(m[a]); err != nil {
					t.Fatal(err)
				}
				m[a] = &mapSummary{}
				if err := json.Unmarshal(raw, m[a]); err != nil {
					t.Fatal(err)
				}
			case 4: // Merge nil and an empty summary: no-ops
				s[a].Merge(nil)
				s[a].Merge(&Summary{})
				m[a].Merge(nil)
				m[a].Merge(&mapSummary{})
			}
			checkSummaryMatches(t, step, s[a], m[a])
		}
		for i := range s {
			checkSummaryMatches(t, -1, s[i], m[i])
		}
	})
}
