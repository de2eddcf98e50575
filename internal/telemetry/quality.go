package telemetry

import "encoding/json"

// NumConfidenceBuckets is the confidence histogram resolution: the [0, 1]
// probability range split into equal-width buckets of 1/NumConfidenceBuckets.
// Unlike the log-linear latency summary, the buckets are fixed-width over a
// bounded domain, so quantiles computed after any sequence of merges are
// exactly the quantiles a single window over the same flows would report —
// the invariant that lets downsampled tiers answer "p10 confidence by hour"
// without approximation.
const NumConfidenceBuckets = 20

// ConfidenceHist is a mergeable histogram over [0, 1] probability values
// (prediction confidences and margins). The zero value is ready to use.
// Bucket i counts observations in (i/NumConfidenceBuckets,
// (i+1)/NumConfidenceBuckets], with 0.0 landing in bucket 0. The buckets
// are a fixed array in the value, so observing and merging are array adds
// and a histogram is one allocation. Its JSON form is count, sum and a
// sparse buckets object holding the non-empty buckets. Not safe for
// concurrent use — windows are mutated under the rollup lock and immutable
// once sealed.
type ConfidenceHist struct {
	Count   uint64
	Sum     float64
	Buckets [NumConfidenceBuckets]uint64
}

// confBucket maps a probability to its bucket index, clamping out-of-domain
// values into the edge buckets.
func confBucket(v float64) int {
	if v <= 0 {
		return 0
	}
	// Values sitting exactly on a bucket boundary belong to the lower bucket
	// (half-open on the left), so 1.0 lands in the top bucket.
	b := int(v * NumConfidenceBuckets)
	if float64(b) == v*NumConfidenceBuckets {
		b--
	}
	if b >= NumConfidenceBuckets {
		b = NumConfidenceBuckets - 1
	}
	if b < 0 {
		b = 0
	}
	return b
}

// Observe folds one probability into the histogram.
func (h *ConfidenceHist) Observe(v float64) {
	h.Count++
	h.Sum += v
	h.Buckets[confBucket(v)]++
}

// Merge folds src into h. nil src is a no-op.
func (h *ConfidenceHist) Merge(src *ConfidenceHist) {
	if src == nil || src.Count == 0 {
		return
	}
	h.Count += src.Count
	h.Sum += src.Sum
	for b, n := range src.Buckets {
		h.Buckets[b] += n
	}
}

// Quantile returns the upper bound of the bucket containing the q-quantile
// observation (q in [0, 1]), or 0 when empty. Reporting the bucket bound
// rather than interpolating keeps the answer identical no matter how the
// underlying windows were merged.
func (h *ConfidenceHist) Quantile(q float64) float64 {
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
	for b, n := range h.Buckets {
		if seen += n; seen > rank {
			return float64(b+1) / NumConfidenceBuckets
		}
	}
	return 1
}

// Mean returns the exact mean of observed probabilities (Sum/Count), or 0
// when empty.
func (h *ConfidenceHist) Mean() float64 {
	if h == nil || h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// confidenceWire is ConfidenceHist's JSON form. encoding/json writes a
// map's integer keys sorted as decimal strings, the order every archived
// window has.
type confidenceWire struct {
	Count   uint64         `json:"count"`
	Sum     float64        `json:"sum"`
	Buckets map[int]uint64 `json:"buckets,omitempty"`
}

// MarshalJSON writes the histogram in its wire form. It runs once per
// sealed window and per /windows read, off the fold path.
func (h ConfidenceHist) MarshalJSON() ([]byte, error) {
	w := confidenceWire{Count: h.Count, Sum: h.Sum}
	for b, n := range h.Buckets {
		if n > 0 {
			if w.Buckets == nil {
				w.Buckets = make(map[int]uint64, NumConfidenceBuckets)
			}
			w.Buckets[b] = n
		}
	}
	return json.Marshal(w)
}

// UnmarshalJSON reads the wire form. Count and sum are kept as written; a
// bucket index outside [0, NumConfidenceBuckets), which only a corrupt
// archive could hold, is dropped.
func (h *ConfidenceHist) UnmarshalJSON(data []byte) error {
	var w confidenceWire
	if err := json.Unmarshal(data, &w); err != nil {
		return err
	}
	*h = ConfidenceHist{Count: w.Count, Sum: w.Sum}
	for b, n := range w.Buckets {
		if b >= 0 && b < NumConfidenceBuckets {
			h.Buckets[b] = n
		}
	}
	return nil
}

// QualitySummary is a window's decision-quality digest: what the classifier
// decided (verdict counts), how sure it was (confidence and margin
// histograms over classification attempts), and the model-lifecycle signals
// in force while the window was open (drift score, shadow agreement). Every
// field merges exactly (openWindow.merge): counts and histogram buckets
// sum, the drift gauge takes the max, so downsampled tiers and Query
// re-aggregation report what a single wider window would have.
type QualitySummary struct {
	// Verdicts counts the window's flows by pipeline.Verdict string.
	Verdicts map[string]uint64 `json:"verdicts,omitempty"`
	// Confidence digests the platform-model top probability of every flow
	// that reached the classifier (classified and abstained alike — the
	// abstentions are exactly the low-confidence mass operators want to see).
	Confidence *ConfidenceHist `json:"confidence,omitempty"`
	// Margin digests the top-1/top-2 probability gap of the same flows.
	Margin *ConfidenceHist `json:"margin,omitempty"`
	// DriftScore is the worst classifier's baseline-minus-recent median
	// confidence drop observed when the window sealed; 0 when healthy or no
	// drift monitor is attached. A gauge: merging takes the max.
	DriftScore float64 `json:"drift_score,omitempty"`
	// ShadowAgreed / ShadowDisagreed count shadow-evaluation samples during
	// the window where the candidate and active banks both predicted a
	// composite platform and agreed (or not). Per-window deltas, so they sum
	// across merges like every other counter.
	ShadowAgreed    uint64 `json:"shadow_agreed,omitempty"`
	ShadowDisagreed uint64 `json:"shadow_disagreed,omitempty"`
}
