// Package telemetry aggregates classified flow records into the usage
// statistics of the paper's §5: watch time per user platform (Figs 7–8),
// bandwidth distributions (Figs 9–10) and hourly data-usage patterns
// (Fig 11).
package telemetry

import (
	"math"
	"sort"
	"time"

	"videoplat/internal/fingerprint"
	"videoplat/internal/pipeline"
)

// BoxStats are the five-number summary the paper's box plots show.
type BoxStats struct {
	Min, Q1, Median, Q3, Max float64
	N                        int
}

// NewBoxStats summarizes xs; it returns a zero value for empty input.
func NewBoxStats(xs []float64) BoxStats {
	if len(xs) == 0 {
		return BoxStats{}
	}
	s := append([]float64{}, xs...)
	sort.Float64s(s)
	q := func(p float64) float64 {
		idx := p * float64(len(s)-1)
		lo := int(math.Floor(idx))
		hi := int(math.Ceil(idx))
		if lo == hi {
			return s[lo]
		}
		frac := idx - float64(lo)
		return s[lo]*(1-frac) + s[hi]*frac
	}
	return BoxStats{Min: s[0], Q1: q(0.25), Median: q(0.5), Q3: q(0.75), Max: s[len(s)-1], N: len(s)}
}

// Aggregator accumulates classified flow records. Only records whose
// prediction cleared the confidence selector contribute to platform
// breakdowns; the paper excludes the ~20% low-confidence sessions the same
// way.
type Aggregator struct {
	// Days is the measurement span used to normalize watch time to
	// hours/day. Set before reporting; defaults to 1.
	Days float64

	records []*pipeline.FlowRecord
}

// Add appends a record.
func (a *Aggregator) Add(rec *pipeline.FlowRecord) { a.records = append(a.records, rec) }

// Len reports the number of records.
func (a *Aggregator) Len() int { return len(a.records) }

// usable reports whether a record contributes to platform-level stats.
func usable(rec *pipeline.FlowRecord) bool {
	return rec.Verdict == pipeline.VerdictClassified && rec.Content && rec.Prediction.Status == pipeline.Composite
}

func (a *Aggregator) days() float64 {
	if a.Days <= 0 {
		return 1
	}
	return a.Days
}

// WatchTimeByDevice returns hours/day of watch time per (provider, device
// type) — Fig 7.
func (a *Aggregator) WatchTimeByDevice() map[fingerprint.Provider]map[string]float64 {
	out := map[fingerprint.Provider]map[string]float64{}
	for _, rec := range a.records {
		if !usable(rec) {
			continue
		}
		m := out[rec.Provider]
		if m == nil {
			m = map[string]float64{}
			out[rec.Provider] = m
		}
		m[rec.Prediction.Device] += rec.Duration().Hours() / a.days()
	}
	return out
}

// WatchTimeByAgent returns hours/day per (provider, device, agent) — Fig 8.
func (a *Aggregator) WatchTimeByAgent() map[fingerprint.Provider]map[string]map[string]float64 {
	out := map[fingerprint.Provider]map[string]map[string]float64{}
	for _, rec := range a.records {
		if !usable(rec) {
			continue
		}
		byDev := out[rec.Provider]
		if byDev == nil {
			byDev = map[string]map[string]float64{}
			out[rec.Provider] = byDev
		}
		byAgent := byDev[rec.Prediction.Device]
		if byAgent == nil {
			byAgent = map[string]float64{}
			byDev[rec.Prediction.Device] = byAgent
		}
		byAgent[rec.Prediction.Agent] += rec.Duration().Hours() / a.days()
	}
	return out
}

// BandwidthByDevice returns downstream-bandwidth box stats per
// (provider, device) — Fig 9.
func (a *Aggregator) BandwidthByDevice() map[fingerprint.Provider]map[string]BoxStats {
	samples := map[fingerprint.Provider]map[string][]float64{}
	for _, rec := range a.records {
		if !usable(rec) {
			continue
		}
		m := samples[rec.Provider]
		if m == nil {
			m = map[string][]float64{}
			samples[rec.Provider] = m
		}
		m[rec.Prediction.Device] = append(m[rec.Prediction.Device], rec.MbpsDown())
	}
	out := map[fingerprint.Provider]map[string]BoxStats{}
	for prov, m := range samples {
		out[prov] = map[string]BoxStats{}
		for dev, xs := range m {
			out[prov][dev] = NewBoxStats(xs)
		}
	}
	return out
}

// BandwidthByAgent returns bandwidth box stats per (provider, device,
// agent) — Fig 10.
func (a *Aggregator) BandwidthByAgent() map[fingerprint.Provider]map[string]map[string]BoxStats {
	samples := map[fingerprint.Provider]map[string]map[string][]float64{}
	for _, rec := range a.records {
		if !usable(rec) {
			continue
		}
		byDev := samples[rec.Provider]
		if byDev == nil {
			byDev = map[string]map[string][]float64{}
			samples[rec.Provider] = byDev
		}
		byAgent := byDev[rec.Prediction.Device]
		if byAgent == nil {
			byAgent = map[string][]float64{}
			byDev[rec.Prediction.Device] = byAgent
		}
		byAgent[rec.Prediction.Agent] = append(byAgent[rec.Prediction.Agent], rec.MbpsDown())
	}
	out := map[fingerprint.Provider]map[string]map[string]BoxStats{}
	for prov, byDev := range samples {
		out[prov] = map[string]map[string]BoxStats{}
		for dev, byAgent := range byDev {
			out[prov][dev] = map[string]BoxStats{}
			for agent, xs := range byAgent {
				out[prov][dev][agent] = NewBoxStats(xs)
			}
		}
	}
	return out
}

// HourlyUsage returns median GB/hour for each hour of day, split into the
// PC and Mobile device classes — Fig 11. Flows contribute their volume to
// the hour of their start time; per-day series are collected and the median
// across days is reported.
func (a *Aggregator) HourlyUsage(prov fingerprint.Provider) (pc, mobile [24]float64) {
	type dayHour struct {
		day  int
		hour int
	}
	pcAcc := map[dayHour]float64{}
	mobAcc := map[dayHour]float64{}
	var t0 time.Time
	for _, rec := range a.records {
		if usable(rec) && (t0.IsZero() || rec.FirstSeen.Before(t0)) {
			t0 = rec.FirstSeen
		}
	}
	for _, rec := range a.records {
		if !usable(rec) || rec.Provider != prov {
			continue
		}
		var class string
		switch rec.Prediction.Device {
		case "windows", "macOS":
			class = "PC"
		case "android", "iOS":
			class = "Mobile"
		default:
			continue
		}
		dh := dayHour{
			day:  int(rec.FirstSeen.Sub(t0).Hours() / 24),
			hour: rec.FirstSeen.Hour(),
		}
		gb := float64(rec.BytesDown) / 1e9
		if class == "PC" {
			pcAcc[dh] += gb
		} else {
			mobAcc[dh] += gb
		}
	}
	collect := func(acc map[dayHour]float64) [24]float64 {
		byHour := map[int][]float64{}
		for dh, v := range acc {
			byHour[dh.hour] = append(byHour[dh.hour], v)
		}
		var out [24]float64
		for h, xs := range byHour {
			out[h] = NewBoxStats(xs).Median
		}
		return out
	}
	return collect(pcAcc), collect(mobAcc)
}

// ExcludedFraction reports the share of classified content flows rejected by
// the confidence selector (the paper excluded ~20%).
func (a *Aggregator) ExcludedFraction() float64 {
	var excluded, total float64
	for _, rec := range a.records {
		if !rec.Verdict.ClassifierRan() || !rec.Content {
			continue
		}
		total++
		if rec.Prediction.Status != pipeline.Composite {
			excluded++
		}
	}
	if total == 0 {
		return 0
	}
	return excluded / total
}
