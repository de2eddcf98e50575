// ISP troubleshooting scenario (the paper's §1 motivation): a household
// behind NAT reports "Netflix keeps buffering". All devices share one IPv4
// address, so per-IP heuristics see a single subscriber. The platform
// classifier separates the household's concurrent video flows by device and
// agent from handshakes alone, letting support staff spot that only one
// platform is affected.
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"videoplat/internal/fingerprint"
	"videoplat/internal/pipeline"
	"videoplat/internal/tracegen"
)

func main() {
	ds, err := tracegen.New(7).LabDataset(0.05, fingerprint.Options{})
	if err != nil {
		log.Fatal(err)
	}
	bank, err := pipeline.TrainBank(ds, pipeline.TrainConfig{})
	if err != nil {
		log.Fatal(err)
	}

	// The household: five devices streaming concurrently through one NAT.
	household := []struct {
		label string
		prov  fingerprint.Provider
		tr    fingerprint.Transport
		note  string
	}{
		{"windows_firefox", fingerprint.Netflix, fingerprint.TCP, "teen's gaming PC"},
		{"macOS_safari", fingerprint.Netflix, fingerprint.TCP, "home-office MacBook"},
		{"iOS_nativeApp", fingerprint.Netflix, fingerprint.TCP, "parent's iPhone"},
		{"androidTV_nativeApp", fingerprint.Netflix, fingerprint.TCP, "living-room TV"},
		{"windows_chrome", fingerprint.YouTube, fingerprint.QUIC, "same PC, second screen"},
	}

	g := tracegen.New(99)
	p := pipeline.New(bank)
	start := time.Date(2023, 10, 1, 20, 0, 0, 0, time.UTC)

	fmt.Println("household flows as seen at the ISP (one shared IPv4):")
	for i, h := range household {
		flow, err := g.Flow(h.label, h.prov, h.tr, tracegen.FlowSpec{Start: start})
		if err != nil {
			log.Fatal(err)
		}
		for _, fr := range flow.Frames {
			rec, err := p.HandlePacket(flow.Start.Add(fr.Offset), fr.Data)
			if err != nil {
				log.Fatal(err)
			}
			if rec == nil {
				continue
			}
			verdict := rec.Prediction.Platform
			if rec.Prediction.Status != pipeline.Composite {
				verdict = fmt.Sprintf("partial(device=%s)", rec.Prediction.Device)
			}
			match := " "
			if verdict == h.label {
				match = "✓"
			}
			fmt.Printf("  flow %d: %-8s -> %-22s %s  (truth: %-22s %s)\n",
				i+1, rec.Provider, verdict, match, h.label, h.note)
		}
	}

	// Support-desk view: platform mix of the complaint's provider.
	fmt.Println("\nsupport-desk summary for the Netflix ticket:")
	byPlatform := map[string]int{}
	for _, rec := range p.Flows() {
		if rec.Classified && rec.Provider == fingerprint.Netflix &&
			rec.Prediction.Status == pipeline.Composite {
			byPlatform[rec.Prediction.Platform]++
		}
	}
	keys := make([]string, 0, len(byPlatform))
	for k := range byPlatform {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  %-24s %d active flow(s)\n", k, byPlatform[k])
	}
	fmt.Println("\nwith the known issue list (e.g. 'Firefox-on-Windows playback bug'),")
	fmt.Println("staff can tell the customer which device to check — without decrypting")
	fmt.Println("anything or seeing per-device IPs.")
}
