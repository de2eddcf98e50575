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
// platforms with the same confidence filtering the paper applies.
package campus

import (
	"fmt"
	"math"
	"math/rand/v2"
	"time"

	"videoplat/internal/fingerprint"
	"videoplat/internal/pipeline"
	"videoplat/internal/telemetry"
	"videoplat/internal/tracegen"
)

// Config sizes the simulation.
type Config struct {
	Seed           uint64
	Days           int       // paper: ~125 days (Jul 7 – Nov 9 2023)
	SessionsPerDay int       // scaled-down stand-in for campus volume
	Start          time.Time // defaults to 2023-07-07 00:00 UTC
}

// Result is the simulation outcome.
type Result struct {
	Agg *telemetry.Aggregator
	// TrueLabels counts ground-truth platform labels, for validating the
	// classified aggregates.
	TrueLabels map[string]int
	Flows      int
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
	if cfg.Start.IsZero() {
		cfg.Start = time.Date(2023, 7, 7, 0, 0, 0, 0, time.UTC)
	}
	rng := rand.New(rand.NewPCG(cfg.Seed, 0xca3b05))

	res := &Result{
		Agg:        &telemetry.Aggregator{Days: float64(cfg.Days)},
		TrueLabels: map[string]int{},
	}
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
					if err := oneSession(rng, gen, cfg, res, bank, &sc, prov, day, h); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	return res, nil
}

func oneSession(rng *rand.Rand, gen *tracegen.Generator, cfg Config, res *Result, bank *pipeline.Bank, sc *pipeline.ClassifyScratch, prov fingerprint.Provider, day, hour int) error {
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

	start := cfg.Start.Add(time.Duration(day)*24*time.Hour +
		time.Duration(hour)*time.Hour +
		time.Duration(rng.IntN(3600))*time.Second)

	rec := &pipeline.FlowRecord{
		Provider:   prov,
		Transport:  tr,
		SNI:        fp.SNI,
		Content:    true,
		Prediction: pred,
		Verdict:    pred.Verdict(),
		FirstSeen:  start,
		LastSeen:   start.Add(dur),
		BytesDown:  bytesDown,
		BytesUp:    bytesDown / 40,
	}
	res.Agg.Add(rec)
	res.TrueLabels[label]++
	res.Flows++
	return nil
}
