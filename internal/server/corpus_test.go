package server

import (
	"encoding/json"
	"fmt"
	"maps"
	"strconv"
	"strings"
	"testing"

	"videoplat/internal/telemetry"
	"videoplat/internal/tracegen"
)

// TestCorpusReplayConservesFlows replays the scenario corpus
// (tracegen.Corpus) through the whole daemon, with the provider hint, at 1
// and 2 shards. After the stop every flow the tables inserted has one
// verdict and is counted in a sealed window, the tables are empty, and
// /stats, /windows and /metrics parse, /metrics counting every verdict as
// /stats does. The verdict counts must not depend on the shard count.
func TestCorpusReplayConservesFlows(t *testing.T) {
	if testing.Short() {
		t.Skip("bank training is slow")
	}
	bank := trainBank(t)
	var verdicts1 map[string]uint64
	for _, shards := range []int{1, 2} {
		res := replayInProcess(t, bank, tracegen.Replay(tracegen.Corpus()),
			Config{Shards: shards, ProviderHint: tracegen.ProviderOfAddr}, nil)
		st := res.Stats
		var listing struct{ Windows []telemetry.Window }
		if err := json.Unmarshal(res.Windows, &listing); err != nil {
			t.Fatalf("%d shards: /windows: %v", shards, err)
		}
		var windowFlows uint64
		for _, w := range listing.Windows {
			windowFlows += uint64(w.Flows)
		}
		decided := sum(st.FlowVerdicts)
		t.Logf("%d shards: %d flows in %d windows, verdicts %v", shards, decided, len(listing.Windows), st.FlowVerdicts)
		if decided == 0 || decided != st.FlowTable.Inserted || decided != st.FinalizedFlows || decided != windowFlows {
			t.Errorf("%d shards: %d decided, %d inserted, %d finalized, %d in sealed windows; want all equal",
				shards, decided, st.FlowTable.Inserted, st.FinalizedFlows, windowFlows)
		}
		if st.FlowTable.Active != 0 || st.FlowTable.Evicted() != st.FlowTable.Inserted {
			t.Errorf("%d shards: after the stop the tables hold %+v, want every inserted flow evicted", shards, st.FlowTable)
		}
		series := map[string]float64{}
		for _, line := range strings.Split(strings.TrimSpace(res.Metrics), "\n") {
			if strings.HasPrefix(line, "#") {
				continue
			}
			i := strings.LastIndexByte(line, ' ')
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if i <= 0 || err != nil {
				t.Fatalf("%d shards: /metrics line %q is not a series and a number", shards, line)
			}
			series[line[:i]] = v
		}
		for v, n := range st.FlowVerdicts {
			if got := series[fmt.Sprintf("videoplat_flow_verdicts_total{verdict=%q}", v)]; got != float64(n) {
				t.Errorf("%d shards: /metrics counts %v %s flows, /stats %d", shards, got, v, n)
			}
		}
		if verdicts1 == nil {
			verdicts1 = st.FlowVerdicts
		} else if !maps.Equal(st.FlowVerdicts, verdicts1) {
			t.Errorf("%d shards: flow_verdicts %v, 1 shard %v", shards, st.FlowVerdicts, verdicts1)
		}
	}
}
