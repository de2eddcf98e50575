// Command vpextract parses a PCAP and writes one CSV row of the 62 Table 2
// handshake attributes per video flow — the reproduction of the paper's
// published chlo_extract tool.
//
// Usage:
//
//	vpextract capture.pcap > attributes.csv
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"

	"videoplat/internal/features"
	"videoplat/internal/packet"
	"videoplat/internal/pcap"
	"videoplat/internal/pipeline"
)

func main() {
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: vpextract capture.pcap")
		os.Exit(2)
	}
	f, err := os.Open(flag.Arg(0))
	exitOn(err)
	defer f.Close()
	exitOn(extract(f, os.Stdout))
}

// extract reads a capture from in and writes the attribute CSV to out.
func extract(in io.ReadSeeker, out io.Writer) error {
	r, err := pcap.OpenReader(in) // accepts classic pcap and pcapng
	if err != nil {
		return err
	}

	// Group client frames per canonical flow. The client direction is the
	// pipeline's rule, not "whichever side the capture shows first": a
	// two-tap merge or a capture started mid-flow may lead with the server.
	type flowBuf struct {
		frames [][]byte
		key    packet.FlowKey // client to server
	}
	flows := map[packet.FlowKey]*flowBuf{}
	var order []*flowBuf
	var parser packet.Parser
	var parsed packet.Parsed
	for {
		pkt, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		if parser.Parse(pkt.Data, &parsed) != nil {
			continue
		}
		key, ok := parsed.Flow()
		if !ok {
			continue
		}
		canon := key.Canonical()
		fb := flows[canon]
		if fb == nil {
			fb = &flowBuf{key: pipeline.ClientSide(key)}
			flows[canon] = fb
			order = append(order, fb)
		}
		if key == fb.key {
			fb.frames = append(fb.frames, pkt.Data)
		}
	}

	w := csv.NewWriter(out)
	header := []string{"flow", "sni", "provider", "transport"}
	for _, a := range features.Table2 {
		header = append(header, a.Label)
	}
	if err := w.Write(header); err != nil {
		return err
	}

	for _, fb := range order {
		info, err := pipeline.ExtractFrames(fb.frames)
		if err != nil {
			continue // no ClientHello in this flow
		}
		sni := info.Hello.ServerName()
		prov, _, ok := pipeline.MatchProvider(sni)
		provName := ""
		if ok {
			provName = prov.String()
		}
		transport := "tcp"
		if info.QUIC {
			transport = "quic"
		}
		v := features.Extract(info)
		row := []string{fb.key.String(), sni, provName, transport}
		for _, a := range features.Table2 {
			row = append(row, v.Render(a))
		}
		if err := w.Write(row); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "vpextract:", err)
		os.Exit(1)
	}
}
