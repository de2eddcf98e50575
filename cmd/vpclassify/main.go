// Command vpclassify replays a PCAP through the streaming classification
// pipeline and prints one labeled telemetry row per port-443 flow as the flow
// is finalized: the platform (or the partial device/agent) of a flow the
// classifier labeled, otherwise the flow's verdict. A summary of the verdict
// counts follows; they add up to the flows printed.
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

	"videoplat/internal/flowtable"
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
	exitOn(classify(f, &bank, os.Stdout))
}

// classify replays the capture in through a pipeline over bank and writes to
// out one row per flow as it leaves the table — idle or over the cap during
// the replay, drained at the end — then the verdict counts.
func classify(in io.ReadSeeker, bank *pipeline.Bank, out io.Writer) error {
	r, err := pcap.OpenReader(in) // accepts classic pcap and pcapng
	if err != nil {
		return err
	}
	p := pipeline.NewWithConfig(bank, pipeline.Config{
		MaxFlows:    pipeline.DefaultMaxFlows,
		IdleTimeout: pipeline.DefaultIdleTimeout,
		OnEvict:     func(rec *pipeline.FlowRecord, _ flowtable.Reason) { printRecord(out, rec) },
	})
	for {
		pkt, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		p.HandlePacket(pkt.Timestamp, pkt.Data) // a classifier error is the flow's verdict
	}
	p.Drain()

	st := p.Stats()
	fmt.Fprintf(out, "\npackets: %d\nflows: %d\nclassified flows: %d\n",
		st.Packets, p.TableStats().Inserted, st.Verdicts[pipeline.VerdictClassified])
	for v := pipeline.VerdictAbstained; int(v) < pipeline.NumVerdicts; v++ {
		fmt.Fprintf(out, "%s: %d\n", v, st.Verdicts[v])
	}
	return nil
}

// printRecord writes a finalized flow's row: provider and transport when
// known, the SNI (the flow key when none was seen), the outcome, and the
// flow's duration and mean downstream rate.
func printRecord(out io.Writer, rec *pipeline.FlowRecord) {
	who := "-"
	if rec.Verdict.ProviderKnown() {
		who = rec.Provider.String() + "/" + rec.Transport.String()
	}
	name := rec.SNI
	if name == "" {
		name = rec.Key.String()
	}
	fmt.Fprintf(out, "%-13s %-46s -> %-40s %6.1fs %8.2f Mbps\n",
		who, name, outcome(rec), rec.Duration().Seconds(), rec.MbpsDown())
}

// outcome names what was decided: the platform of a composite prediction,
// the device and agent of a partial one, otherwise the verdict.
func outcome(rec *pipeline.FlowRecord) string {
	pred := rec.Prediction
	switch {
	case rec.Verdict != pipeline.VerdictClassified:
		return rec.Verdict.String()
	case pred.Status == pipeline.Composite:
		return fmt.Sprintf("%s (%.0f%%)", pred.Platform, pred.PlatformConf*100)
	}
	return fmt.Sprintf("partial device=%q agent=%q", pred.Device, pred.Agent)
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "vpclassify:", err)
		os.Exit(1)
	}
}
