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
	"videoplat/internal/flowtable"
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
	start := time.Date(2023, 10, 1, 20, 0, 0, 0, time.UTC)

	// Each flow's finalized record comes out of OnEvict once; Drain, after
	// the last packet, empties the table. Rows print in flow order, keyed by
	// the flow's client port.
	recs := map[uint16]*pipeline.FlowRecord{}
	p := pipeline.NewWithConfig(bank, pipeline.Config{
		OnEvict: func(rec *pipeline.FlowRecord, _ flowtable.Reason) { recs[rec.Key.SrcPort] = rec },
	})
	var ports []uint16
	for _, h := range household {
		flow, err := g.Flow(h.label, h.prov, h.tr, tracegen.FlowSpec{Start: start})
		if err != nil {
			log.Fatal(err)
		}
		ports = append(ports, flow.ClientPort)
		for _, fr := range flow.Frames {
			p.HandlePacket(flow.Start.Add(fr.Offset), fr.Data)
		}
	}
	p.Drain()

	fmt.Println("household flows as seen at the ISP (one shared IPv4):")
	byPlatform := map[string]int{} // the complaint's provider, by platform
	for i, h := range household {
		rec := recs[ports[i]]
		verdict := rec.Prediction.Platform
		switch {
		case rec.Verdict != pipeline.VerdictClassified:
			verdict = rec.Verdict.String()
		case rec.Prediction.Status != pipeline.Composite:
			verdict = fmt.Sprintf("partial(device=%s)", rec.Prediction.Device)
		case rec.Provider == fingerprint.Netflix:
			byPlatform[verdict]++
		}
		match := " "
		if verdict == h.label {
			match = "✓"
		}
		fmt.Printf("  flow %d: %-8s -> %-22s %s  (truth: %-22s %s)\n",
			i+1, h.prov, verdict, match, h.label, h.note)
	}

	// Support-desk view: platform mix of the complaint's provider.
	fmt.Println("\nsupport-desk summary for the Netflix ticket:")
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
