// Capacity-planning scenario (the paper's §5.3): an ISP sizing evening
// bandwidth needs per video provider and user platform. Runs a scaled-down
// campus workload through the classifier and prints the aggregates a
// forecasting team would consume: watch time per device class, bandwidth
// quartiles and the peak-hour profile.
package main

import (
	"fmt"
	"log"

	"videoplat/internal/campus"
	"videoplat/internal/fingerprint"
	"videoplat/internal/pipeline"
	"videoplat/internal/tracegen"
)

func main() {
	ds, err := tracegen.New(3).LabDataset(0.06, fingerprint.Options{})
	if err != nil {
		log.Fatal(err)
	}
	bank, err := pipeline.TrainBank(ds, pipeline.TrainConfig{})
	if err != nil {
		log.Fatal(err)
	}

	res, err := campus.Simulate(campus.Config{Seed: 5, Days: 3, SessionsPerDay: 800}, bank)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated %d video flows over 3 days; %.0f%% excluded as low-confidence\n\n",
		res.Flows, res.ExcludedFraction()*100)

	fmt.Println("watch time (hours/day) by device type:")
	wt := res.WatchTimeByDevice()
	for _, prov := range fingerprint.AllProviders() {
		fmt.Printf("  %-8s", prov)
		for _, dev := range []string{"windows", "macOS", "android", "iOS", "TV"} {
			fmt.Printf("  %s=%.0f", dev, wt[prov][dev])
		}
		fmt.Println()
	}

	fmt.Println("\ndownstream bandwidth medians (Mbps) — provisioning input:")
	bw := res.BandwidthByDevice()
	for _, prov := range fingerprint.AllProviders() {
		fmt.Printf("  %-8s", prov)
		for _, dev := range []string{"windows", "macOS", "android", "iOS", "TV"} {
			box := bw[prov][dev]
			if box.N > 0 {
				fmt.Printf("  %s=%.1f", dev, box.Median)
			}
		}
		fmt.Println()
	}

	fmt.Println("\nevening peak (median GB/hr, PC class):")
	for _, prov := range fingerprint.AllProviders() {
		pc, _ := res.HourlyUsage(prov)
		peakHour, peak := 0, 0.0
		for h, v := range pc {
			if v > peak {
				peak, peakHour = v, h
			}
		}
		fmt.Printf("  %-8s peaks at %02d:00 with %.1f GB/hr\n", prov, peakHour, peak)
	}

	fmt.Println("\nplanning takeaways (mirroring the paper's findings):")
	apMac := bw[fingerprint.Amazon]["macOS"].Median
	apTV := bw[fingerprint.Amazon]["TV"].Median
	fmt.Printf("  - Amazon on Mac PCs needs %.1fx the TV bandwidth (paper: ~1.5x)\n", apMac/apTV)
	fmt.Println("  - YouTube demand is mobile-heavy and spread 16:00-24:00; subscription")
	fmt.Println("    services concentrate in a sharper 19:00-23:00 window on PCs/TVs.")
}
