// Command vpgen renders synthetic labeled video-streaming traffic to a PCAP
// file, for feeding vpextract and vpclassify or for inspection in Wireshark.
// It writes the session stream vpserve -synth replays: vpserve -synth N
// -seed S replays exactly the packets vpgen -sessions N -seed S writes, so
// vpserve -pcap of a vpgen capture is the same traffic without the render
// cost.
//
// Usage:
//
//	vpgen -sessions 20 -out traffic.pcap
//	vpgen -platform iOS_nativeApp -provider disney -out ios-disney.pcap
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"

	"videoplat/internal/fingerprint"
	"videoplat/internal/tracegen"
)

func main() {
	var (
		out      = flag.String("out", "traffic.pcap", "output PCAP file")
		seed     = flag.Uint64("seed", 1, "deterministic seed")
		sessions = flag.Int("sessions", 10, "number of video sessions")
		platform = flag.String("platform", "", "restrict to one platform label (default: random mix); without -provider, sessions draw from the providers it supports")
		provider = flag.String("provider", "", "restrict to one provider (youtube/netflix/disney/amazon)")
	)
	flag.Parse()

	cfg := tracegen.StreamConfig{Seed: *seed, Sessions: *sessions, Platform: *platform}
	if *provider != "" {
		var p fingerprint.Provider
		if err := p.UnmarshalText([]byte(*provider)); err != nil {
			fmt.Fprintf(os.Stderr, "unknown provider %q\n", *provider)
			os.Exit(2)
		}
		cfg.Providers = []fingerprint.Provider{p}
	}
	if *sessions < 1 {
		// The stream reads 0 as unlimited; a capture file must end.
		fmt.Fprintln(os.Stderr, "-sessions must be at least 1")
		os.Exit(2)
	}

	f, err := os.Create(*out)
	exitOn(err)
	stream := tracegen.NewStream(cfg)
	packets, err := stream.WritePCAP(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(*out) // no partial capture
	}
	if errors.Is(err, tracegen.ErrUnsupported) {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	exitOn(err)
	fmt.Fprintf(os.Stderr, "wrote %s: %d sessions, %d flows, %d packets\n",
		*out, *sessions, stream.Flows(), packets)
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "vpgen:", err)
		os.Exit(1)
	}
}
