package tracegen

import (
	"crypto/sha256"
	"encoding/hex"
	"net/netip"
	"testing"
)

// TestCorpusBytesPinned pins the scenario corpus as Replay hands it out,
// every timestamp and frame byte in order, and the two hand-built flows it
// leaves out: a change to how they are built must leave these hashes as
// they are, and with them the finalized-record golden and every test that
// draws them.
func TestCorpusBytesPinned(t *testing.T) {
	g := New(1)
	for _, c := range []struct {
		name    string
		traces  []*FlowTrace
		packets int
		want    string
	}{
		{"corpus", Corpus(), 408, "dc95cd4b4a6345bde637d25e039d9a8d4bd1da4c37b7f97a5c15192cab95ec87"},
		{"cut and two-record hellos", []*FlowTrace{
			g.CutHelloFlow(netip.MustParseAddr("192.168.9.4")),
			g.TwoRecordHelloFlow(netip.MustParseAddr("192.168.9.5")),
		}, 5, "1ce15f6b5612f1d9b5119a5b96cd0ab7773d06e6653c80be2c2f0248486fbd14"},
	} {
		h := sha256.New()
		n, err := Replay(c.traces).WritePCAP(h)
		if err != nil {
			t.Fatal(err)
		}
		if got := hex.EncodeToString(h.Sum(nil)); n != c.packets || got != c.want {
			t.Errorf("%s: %d packets hash to %s, want %d and %s", c.name, n, got, c.packets, c.want)
		}
	}
}
