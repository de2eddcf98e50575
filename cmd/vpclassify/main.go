// Command vpclassify replays a PCAP through the streaming classification
// pipeline and prints one labeled telemetry row per detected video flow.
//
// Usage:
//
//	vpclassify -model bank.gob capture.pcap
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"videoplat/internal/pcap"
	"videoplat/internal/pipeline"
)

func main() {
	model := flag.String("model", "bank.gob", "trained model from vptrain")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: vpclassify -model bank.gob capture.pcap")
		os.Exit(2)
	}

	blob, err := os.ReadFile(*model)
	exitOn(err)
	var bank pipeline.Bank
	exitOn(bank.UnmarshalBinary(blob))

	f, err := os.Open(flag.Arg(0))
	exitOn(err)
	defer f.Close()
	r, err := pcap.OpenReader(f) // accepts classic pcap and pcapng
	exitOn(err)

	p := pipeline.New(&bank)
	for {
		pkt, err := r.Next()
		if err == io.EOF {
			break
		}
		exitOn(err)
		rec, err := p.HandlePacket(pkt.Timestamp, pkt.Data)
		exitOn(err)
		if rec != nil {
			printRecord(rec)
		}
	}
	st := p.Stats()
	fmt.Printf("\npackets: %d  classified flows: %d  unknown: %d\n",
		st.Packets, st.Verdicts[pipeline.VerdictClassified],
		st.Verdicts[pipeline.VerdictAbstained]+st.Verdicts[pipeline.VerdictAbstainedECH]+st.Verdicts[pipeline.VerdictAbstainedZeroRTT])

	fmt.Println("\nfinal flow telemetry:")
	for _, rec := range p.Flows() {
		if !rec.Verdict.ClassifierRan() {
			continue
		}
		fmt.Printf("  %-46s %8s %6.1fs %8.2f Mbps\n",
			rec.SNI, rec.Provider, rec.Duration().Seconds(), rec.MbpsDown())
	}
}

func printRecord(rec *pipeline.FlowRecord) {
	pred := rec.Prediction
	switch pred.Status {
	case pipeline.Composite:
		fmt.Printf("%-10s %-5s %-46s -> %s (%.0f%%)\n",
			rec.Provider, rec.Transport, rec.SNI, pred.Platform, pred.PlatformConf*100)
	case pipeline.Partial:
		fmt.Printf("%-10s %-5s %-46s -> partial device=%q agent=%q\n",
			rec.Provider, rec.Transport, rec.SNI, pred.Device, pred.Agent)
	default:
		fmt.Printf("%-10s %-5s %-46s -> unknown platform\n",
			rec.Provider, rec.Transport, rec.SNI)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "vpclassify:", err)
		os.Exit(1)
	}
}
