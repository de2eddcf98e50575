// Package campus models the four-month university deployment of §5 as a
// discrete-event workload: session arrivals follow per-provider diurnal
// curves, user platforms are drawn from a mix calibrated to the paper's
// Figs 7–8 (YouTube mobile-heavy, subscription services PC-heavy), and
// per-flow bandwidth follows per-(provider, platform) lognormal
// distributions calibrated to Figs 9–10 (Amazon on Mac PCs the most
// demanding). Every generated flow's handshake is rendered into packets,
// its attributes are read back off them by the assembler the serving
// pipeline runs (pipeline.ExtractTrace), and the trained classifier bank
// classifies them, so the §5 figures are computed from *predicted*
// platforms with the same confidence filtering the paper applies. Each
// session is folded into the figures' cells (Result) as it is classified;
// the simulation keeps no per-flow record.
package campus

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"time"

	"videoplat/internal/fingerprint"
	"videoplat/internal/pipeline"
	"videoplat/internal/tracegen"
)

// Config sizes the simulation.
type Config struct {
	Seed           uint64
	Days           int // paper: ~125 days (Jul 7 – Nov 9 2023)
	SessionsPerDay int // scaled-down stand-in for campus volume
}

// providerShare is the share of sessions per provider (YouTube dominates
// engagement, Fig 7).
var providerShare = map[fingerprint.Provider]float64{
	fingerprint.YouTube: 0.55,
	fingerprint.Netflix: 0.20,
	fingerprint.Disney:  0.13,
	fingerprint.Amazon:  0.12,
}

// platformWeights is the user-platform mix per provider, calibrated to
// Fig 8: Chrome-on-Windows dominates YouTube PC viewing, the iOS native app
// dominates mobile viewing of every provider, and subscription services are
// watched mostly on PCs.
var platformWeights = map[fingerprint.Provider]map[string]float64{
	fingerprint.YouTube: {
		"windows_chrome": 677, "windows_edge": 138, "windows_firefox": 95,
		"macOS_safari": 160, "macOS_chrome": 120, "macOS_edge": 39, "macOS_firefox": 57,
		"android_nativeApp": 466, "android_chrome": 29, "android_samsungInternet": 16,
		"iOS_nativeApp": 529, "iOS_safari": 44, "iOS_chrome": 11,
		"androidTV_nativeApp": 98, "ps5_nativeApp": 44,
	},
	fingerprint.Netflix: {
		"windows_chrome": 180, "windows_edge": 90, "windows_firefox": 60, "windows_nativeApp": 70,
		"macOS_safari": 210, "macOS_chrome": 80, "macOS_edge": 25, "macOS_firefox": 35,
		"android_nativeApp": 70, "iOS_nativeApp": 110,
		"androidTV_nativeApp": 90, "ps5_nativeApp": 50,
	},
	fingerprint.Disney: {
		"windows_chrome": 120, "windows_edge": 60, "windows_firefox": 40, "windows_nativeApp": 50,
		"macOS_safari": 110, "macOS_chrome": 55, "macOS_edge": 18, "macOS_firefox": 22,
		"android_nativeApp": 40, "iOS_nativeApp": 160,
		"androidTV_nativeApp": 60, "ps5_nativeApp": 30,
	},
	fingerprint.Amazon: {
		"windows_chrome": 110, "windows_edge": 55, "windows_firefox": 35, "windows_nativeApp": 45,
		"macOS_safari": 150, "macOS_chrome": 60, "macOS_edge": 20, "macOS_firefox": 25,
		"macOS_nativeApp":   40,
		"android_nativeApp": 30, "iOS_nativeApp": 70,
		"androidTV_nativeApp": 50, "ps5_nativeApp": 25,
	},
}

// medianMbps is the downstream bandwidth median per (provider, platform),
// calibrated to Figs 9–10. Unlisted platforms fall back to deviceMbps.
var medianMbps = map[fingerprint.Provider]map[string]float64{
	fingerprint.Amazon: {
		"macOS_safari": 5.7, "macOS_chrome": 5.2, "macOS_edge": 5.0, "macOS_firefox": 5.1,
		"macOS_nativeApp": 5.4,
		"windows_chrome":  4.6, "windows_edge": 4.4, "windows_firefox": 4.5, "windows_nativeApp": 4.2,
		"android_nativeApp": 2.2, "iOS_nativeApp": 2.6,
		"androidTV_nativeApp": 3.8, "ps5_nativeApp": 3.7,
	},
	fingerprint.Disney: {
		"windows_chrome": 4.0, "windows_edge": 3.9, "windows_firefox": 3.9, "windows_nativeApp": 4.1,
		"macOS_safari": 4.6, "macOS_chrome": 4.2, "macOS_edge": 4.1, "macOS_firefox": 4.2,
		"android_nativeApp": 2.6, "iOS_nativeApp": 3.0,
		"androidTV_nativeApp": 3.6, "ps5_nativeApp": 3.5,
	},
	fingerprint.Netflix: {
		// Browser playback (except Safari) is capped at lower resolutions.
		"windows_chrome": 1.8, "windows_edge": 1.8, "windows_firefox": 1.7, "windows_nativeApp": 4.2,
		"macOS_safari": 3.6, "macOS_chrome": 1.9, "macOS_edge": 1.8, "macOS_firefox": 1.8,
		"android_nativeApp": 2.4, "iOS_nativeApp": 2.7,
		"androidTV_nativeApp": 4.1, "ps5_nativeApp": 4.0,
	},
	fingerprint.YouTube: {
		"windows_chrome": 2.4, "windows_edge": 2.3, "windows_firefox": 2.3,
		"macOS_safari": 2.6, "macOS_chrome": 2.5, "macOS_edge": 2.4, "macOS_firefox": 2.4,
		"android_nativeApp": 1.6, "android_chrome": 1.5, "android_samsungInternet": 1.5,
		"iOS_nativeApp": 1.8, "iOS_safari": 1.7, "iOS_chrome": 1.7,
		"androidTV_nativeApp": 3.0, "ps5_nativeApp": 2.8,
	},
}

// hourWeight shapes arrivals over the day per provider (Fig 11): YouTube
// sustains a long 4pm–midnight plateau, Netflix peaks sharply 8–10pm,
// Amazon and Disney+ share a 7–11pm window.
func hourWeight(prov fingerprint.Provider, hour int) float64 {
	switch prov {
	case fingerprint.YouTube:
		switch {
		case hour >= 16 && hour <= 23:
			return 1.0
		case hour >= 9 && hour < 16:
			return 0.55
		case hour < 2:
			return 0.5
		default:
			return 0.15
		}
	case fingerprint.Netflix:
		switch {
		case hour >= 20 && hour <= 22:
			return 1.0
		case hour >= 17 && hour < 20:
			return 0.5
		case hour == 23 || hour < 1:
			return 0.45
		case hour >= 10:
			return 0.25
		default:
			return 0.08
		}
	default: // Amazon, Disney+
		switch {
		case hour >= 19 && hour <= 23:
			return 1.0
		case hour >= 12 && hour < 19:
			return 0.3
		case hour < 1:
			return 0.3
		default:
			return 0.07
		}
	}
}

// pick draws a key from a weight map.
func pick(rng *rand.Rand, weights map[string]float64) string {
	var total float64
	for _, w := range weights {
		total += w
	}
	r := rng.Float64() * total
	// map iteration order is random; accumulate over a deterministic order
	for _, label := range fingerprint.AllPlatformLabels() {
		w, ok := weights[label]
		if !ok {
			continue
		}
		r -= w
		if r <= 0 {
			return label
		}
	}
	// numeric fallback: return any present label
	for _, label := range fingerprint.AllPlatformLabels() {
		if _, ok := weights[label]; ok {
			return label
		}
	}
	return ""
}

// Simulate runs the campus workload through the classifier bank.
func Simulate(cfg Config, bank *pipeline.Bank) (*Result, error) {
	if cfg.Days <= 0 {
		cfg.Days = 7
	}
	if cfg.SessionsPerDay <= 0 {
		cfg.SessionsPerDay = 2000
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xca3b05))

	res := newResult(cfg.Days)
	var sc pipeline.ClassifyScratch
	// The renderer's draws (endpoints, sequence numbers, IP IDs) reach no
	// attribute, so they are kept apart from the workload's draws.
	gen := tracegen.New(cfg.Seed)

	for day := 0; day < cfg.Days; day++ {
		for _, prov := range fingerprint.AllProviders() {
			// Normalize hour weights into session counts for the day.
			var weightSum float64
			for h := 0; h < 24; h++ {
				weightSum += hourWeight(prov, h)
			}
			dayTotal := float64(cfg.SessionsPerDay) * providerShare[prov]
			for h := 0; h < 24; h++ {
				expect := dayTotal * hourWeight(prov, h) / weightSum
				n := int(expect)
				if rng.Float64() < expect-float64(n) {
					n++
				}
				for i := 0; i < n; i++ {
					if err := oneSession(rng, gen, res, bank, &sc, prov, day, h); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return res, nil
}

// oneSession simulates one session that starts in hour of day, classifies
// its flow and folds it into res.
func oneSession(rng *rand.Rand, gen *tracegen.Generator, res *Result, bank *pipeline.Bank, sc *pipeline.ClassifyScratch, prov fingerprint.Provider, day, hour int) error {
	label := pick(rng, platformWeights[prov])
	if label == "" {
		return fmt.Errorf("campus: no platforms for %s", prov)
	}
	tr := fingerprint.TCP
	if fingerprint.SupportsQUIC(label, prov) && rng.Float64() < 0.5 {
		tr = fingerprint.QUIC
	}
	fp, err := fingerprint.Generate(rng, label, prov, tr, fingerprint.Options{})
	if err != nil {
		return err
	}
	// One payload frame, as in the lab dataset: only the handshake is read.
	ft, err := gen.Render(label, fp, uint8(1+rng.IntN(3)), tracegen.FlowSpec{PayloadFrames: 1})
	if err != nil {
		return err
	}
	info, err := pipeline.ExtractTrace(ft)
	if err != nil {
		return err
	}
	pred, err := bank.ClassifyHandshake(prov, tr, info, sc)
	if err != nil {
		return err
	}

	// Session duration: lognormal around ~22 minutes.
	durMin := math.Exp(rng.NormFloat64()*0.8 + math.Log(22))
	if durMin < 0.5 {
		durMin = 0.5
	}
	dur := time.Duration(durMin * float64(time.Minute))

	// Bandwidth: lognormal around the calibrated per-platform median.
	med := medianMbps[prov][label]
	if med == 0 {
		med = 2.5
	}
	mbps := math.Exp(rng.NormFloat64()*0.45 + math.Log(med))
	bytesDown := int64(mbps * 1e6 / 8 * dur.Seconds())

	// The start second within the hour: no figure reads it, and drawing it
	// keeps every later session's draws where they were.
	_ = rng.IntN(3600)

	res.add(prov, pred, day, hour, dur, bytesDown)
	return nil
}

// Result is the simulation's outcome, folded as each session is classified
// into the cells the §5 figures read. Only composite predictions reach a
// cell, the confidence filtering the paper applies; the rest count toward
// ExcludedFraction.
type Result struct {
	Flows int

	days     int
	excluded int
	// platforms holds, per (provider, device, agent), the watch time and
	// every flow's downstream Mbps (Figs 7–10).
	platforms map[platformKey]*platformCell
	// hourly holds the GB per (provider, device class, day, hour of the
	// session's start) (Fig 11).
	hourly map[hourKey]float64
}

type platformKey struct {
	prov          fingerprint.Provider
	device, agent string
}

type platformCell struct {
	watch time.Duration // summed as integers, so in any order the same
	mbps  []float64
}

type hourKey struct {
	prov      fingerprint.Provider
	mobile    bool // android and iOS; windows and macOS are PC
	day, hour int
}

func newResult(days int) *Result {
	return &Result{days: days, platforms: map[platformKey]*platformCell{}, hourly: map[hourKey]float64{}}
}

// add folds one classified session that started in hour of day, lasted dur
// and carried bytesDown downstream.
func (r *Result) add(prov fingerprint.Provider, pred pipeline.Prediction, day, hour int, dur time.Duration, bytesDown int64) {
	r.Flows++
	if pred.Status != pipeline.Composite {
		r.excluded++
		return
	}
	k := platformKey{prov, pred.Device, pred.Agent}
	c := r.platforms[k]
	if c == nil {
		c = &platformCell{}
		r.platforms[k] = c
	}
	c.watch += dur
	c.mbps = append(c.mbps, float64(bytesDown)*8/1e6/dur.Seconds()) // as FlowRecord.MbpsDown
	switch pred.Device {
	case "windows", "macOS":
		r.hourly[hourKey{prov, false, day, hour}] += float64(bytesDown) / 1e9
	case "android", "iOS":
		r.hourly[hourKey{prov, true, day, hour}] += float64(bytesDown) / 1e9
	}
}

// hoursPerDay is a watch time averaged over the simulated days.
func (r *Result) hoursPerDay(d time.Duration) float64 { return d.Hours() / float64(r.days) }

// WatchTimeByDevice returns hours/day of watch time per (provider, device
// type) — Fig 7.
func (r *Result) WatchTimeByDevice() map[fingerprint.Provider]map[string]float64 {
	sums := map[fingerprint.Provider]map[string]time.Duration{}
	for k, c := range r.platforms {
		if sums[k.prov] == nil {
			sums[k.prov] = map[string]time.Duration{}
		}
		sums[k.prov][k.device] += c.watch
	}
	out := map[fingerprint.Provider]map[string]float64{}
	for prov, byDev := range sums {
		out[prov] = map[string]float64{}
		for dev, d := range byDev {
			out[prov][dev] = r.hoursPerDay(d)
		}
	}
	return out
}

// WatchTimeByAgent returns hours/day per (provider, device, agent) — Fig 8.
func (r *Result) WatchTimeByAgent() map[fingerprint.Provider]map[string]map[string]float64 {
	out := map[fingerprint.Provider]map[string]map[string]float64{}
	for k, c := range r.platforms {
		agents(out, k)[k.agent] = r.hoursPerDay(c.watch)
	}
	return out
}

// BandwidthByDevice returns downstream-bandwidth box stats per
// (provider, device) — Fig 9.
func (r *Result) BandwidthByDevice() map[fingerprint.Provider]map[string]BoxStats {
	samples := map[fingerprint.Provider]map[string][]float64{}
	for k, c := range r.platforms {
		if samples[k.prov] == nil {
			samples[k.prov] = map[string][]float64{}
		}
		samples[k.prov][k.device] = append(samples[k.prov][k.device], c.mbps...)
	}
	out := map[fingerprint.Provider]map[string]BoxStats{}
	for prov, byDev := range samples {
		out[prov] = map[string]BoxStats{}
		for dev, xs := range byDev {
			out[prov][dev] = newBoxStats(xs)
		}
	}
	return out
}

// BandwidthByAgent returns bandwidth box stats per (provider, device,
// agent) — Fig 10.
func (r *Result) BandwidthByAgent() map[fingerprint.Provider]map[string]map[string]BoxStats {
	out := map[fingerprint.Provider]map[string]map[string]BoxStats{}
	for k, c := range r.platforms {
		agents(out, k)[k.agent] = newBoxStats(c.mbps)
	}
	return out
}

// agents returns out's agent map for k's provider and device, making it and
// its provider's map if absent.
func agents[V any](out map[fingerprint.Provider]map[string]map[string]V, k platformKey) map[string]V {
	byDev := out[k.prov]
	if byDev == nil {
		byDev = map[string]map[string]V{}
		out[k.prov] = byDev
	}
	if byDev[k.device] == nil {
		byDev[k.device] = map[string]V{}
	}
	return byDev[k.device]
}

// HourlyUsage returns median GB/hour for each hour of day, split into the
// PC and Mobile device classes — Fig 11. A flow's volume counts toward the
// day and hour it started; the median is over the days with usage in that
// hour.
func (r *Result) HourlyUsage(prov fingerprint.Provider) (pc, mobile [24]float64) {
	var pcDays, mobileDays [24][]float64
	for k, gb := range r.hourly {
		if k.prov != prov {
			continue
		}
		if k.mobile {
			mobileDays[k.hour] = append(mobileDays[k.hour], gb)
		} else {
			pcDays[k.hour] = append(pcDays[k.hour], gb)
		}
	}
	for h := range 24 {
		pc[h] = newBoxStats(pcDays[h]).Median
		mobile[h] = newBoxStats(mobileDays[h]).Median
	}
	return pc, mobile
}

// ExcludedFraction reports the share of flows the confidence selector
// rejected (the paper excluded ~20%).
func (r *Result) ExcludedFraction() float64 {
	if r.Flows == 0 {
		return 0
	}
	return float64(r.excluded) / float64(r.Flows)
}

// BoxStats are the five-number summary the paper's box plots show.
type BoxStats struct {
	Min, Q1, Median, Q3, Max float64
	N                        int
}

// newBoxStats summarizes xs; it returns a zero value for empty input.
func newBoxStats(xs []float64) BoxStats {
	if len(xs) == 0 {
		return BoxStats{}
	}
	xs = slices.Clone(xs)
	slices.Sort(xs)
	q := func(p float64) float64 {
		idx := p * float64(len(xs)-1)
		lo := int(math.Floor(idx))
		hi := int(math.Ceil(idx))
		if lo == hi {
			return xs[lo]
		}
		frac := idx - float64(lo)
		return xs[lo]*(1-frac) + xs[hi]*frac
	}
	return BoxStats{Min: xs[0], Q1: q(0.25), Median: q(0.5), Q3: q(0.75), Max: xs[len(xs)-1], N: len(xs)}
}
