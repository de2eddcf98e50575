package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"
	"time"

	"videoplat/internal/fingerprint"
	"videoplat/internal/pipeline"
)

var update = flag.Bool("update", false, "rewrite "+windowsGoldenPath+" from the current store")

const windowsGoldenPath = "testdata/windows.golden"

// goldenVerdicts is the verdict mix of the golden record stream, weighted
// toward classification attempts so every cell carries a confidence digest.
var goldenVerdicts = []pipeline.Verdict{
	pipeline.VerdictClassified, pipeline.VerdictClassified, pipeline.VerdictClassified,
	pipeline.VerdictAbstained, pipeline.VerdictClassified, pipeline.VerdictNoHandshake,
	pipeline.VerdictClassified, pipeline.VerdictNotVideo, pipeline.VerdictAbstained,
	pipeline.VerdictError, pipeline.VerdictOversized, pipeline.VerdictAbstainedECH,
	pipeline.VerdictAbstainedZeroRTT, pipeline.VerdictPending,
}

// goldenRecords is a fixed stream of finalized flow records over about two
// and a half hours of trace time, in bursts a few minutes apart: every
// platform label and provider, every verdict (so unmatched flows too), three
// model versions, timed and untimed classifications, confidences on and
// between bucket boundaries, and late records whose LastSeen predates the
// window they land in.
func goldenRecords() []*pipeline.FlowRecord {
	rng := rand.New(rand.NewPCG(35, 7))
	labels := fingerprint.AllPlatformLabels()
	versions := []string{"v0001", "v0002", ""}
	edges := []float64{0, 0.05, 0.5, 0.95, 1}
	var recs []*pipeline.FlowRecord
	at := w0
	for burst := 0; burst < 14; burst++ {
		at = at.Add(time.Duration(1+rng.IntN(19)) * time.Minute)
		for i := 0; i < 6+rng.IntN(10); i++ {
			n := len(recs)
			start := at.Add(time.Duration(rng.IntN(50_000)) * time.Millisecond)
			dur := time.Duration(1+rng.IntN(600)) * time.Second
			r := &pipeline.FlowRecord{
				Provider:  fingerprint.Provider(n % fingerprint.NumProviders),
				FirstSeen: start.Add(-dur),
				LastSeen:  start,
				BytesDown: rng.Int64N(200 << 20),
				BytesUp:   rng.Int64N(4 << 20),
				Verdict:   goldenVerdicts[n%len(goldenVerdicts)],
			}
			if n%11 == 5 {
				// Late: finalized two minutes before the burst it arrives in.
				r.LastSeen = at.Add(-2 * time.Minute)
				r.FirstSeen = r.LastSeen.Add(-dur)
			}
			if r.Verdict.ClassifierRan() {
				conf := rng.Float64()
				if n%4 == 0 {
					conf = edges[(n/4)%len(edges)]
				}
				r.Prediction.PlatformConf = conf
				r.Prediction.PlatformMargin = conf * rng.Float64()
				r.ModelVersion = versions[n%len(versions)]
				if n%3 != 0 {
					// Timed, across the latency layout's range.
					r.ClassifyNanos = int64(1) << (4 + rng.IntN(28))
					r.ClassifyNanos += rng.Int64N(r.ClassifyNanos)
				}
			}
			switch r.Verdict {
			case pipeline.VerdictClassified:
				r.Content = true
				r.Prediction.Status = pipeline.Composite
				r.Prediction.Platform = labels[(n/2)%len(labels)]
			case pipeline.VerdictAbstained:
				r.Content = true
				r.Prediction.Status = pipeline.Unknown
			}
			recs = append(recs, r)
		}
	}
	return recs
}

// goldenEncode appends v as one compact JSON line, or indented as the
// server's /windows and /query handlers write it.
func goldenEncode(t *testing.T, buf *bytes.Buffer, v any, indent bool) {
	t.Helper()
	enc := json.NewEncoder(buf)
	if indent {
		enc.SetIndent("", "  ")
	}
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
}

// windowsListing is the /windows response shape.
type windowsListing struct {
	Count   int       `json:"count"`
	Listed  int       `json:"listed"`
	Windows []*Window `json:"windows"`
}

// encodeTiers writes every tier's retained windows, one compact line each.
func encodeTiers(t *testing.T, s *Store, tiers []time.Duration) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, width := range append([]time.Duration{0}, tiers...) {
		wins, _, err := s.Windows(time.Time{}, time.Time{}, width, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range wins {
			goldenEncode(t, &buf, w, false)
		}
	}
	return buf.Bytes()
}

// TestWindowJSONUnchanged pins the telemetry wire format: the JSONL archive
// a Rollup writes for a fixed record stream, the /windows listing of every
// tier of the Store beside it, and /query results over it. The stream
// covers every platform, provider and verdict, timed and untimed
// classifications and late records, so a change to how windows and their
// digests are stored must leave the file byte-identical. The archive is
// then reloaded into a fresh store, which must re-encode every window of
// every tier byte for byte. Run with -update to rewrite the file.
func TestWindowJSONUnchanged(t *testing.T) {
	tiers := []time.Duration{10 * time.Minute, time.Hour}
	store := NewStore(StoreConfig{Tiers: tiers})
	var archive bytes.Buffer
	sink := MultiSink(store, NewJSONLSink(&archive))
	sealed := 0
	roll := NewRollup(time.Minute, sinkFunc(func(w *Window) error {
		sealed++
		if w.Quality == nil {
			w.Quality = &QualitySummary{}
		}
		w.Quality.DriftScore = float64(sealed%4) / 8
		w.Quality.ShadowAgreed = uint64(sealed * 3)
		w.Quality.ShadowDisagreed = uint64(sealed % 3)
		return sink.WriteWindow(w)
	}))
	recs := goldenRecords()
	var seen [pipeline.NumVerdicts]int
	for _, r := range recs {
		seen[r.Verdict]++
		roll.Add(r)
	}
	roll.Flush()
	for v, n := range seen {
		if n == 0 {
			t.Errorf("no %s record in the stream", pipeline.Verdict(v))
		}
	}

	var buf bytes.Buffer
	fmt.Fprintf(&buf, "# %d records, %d windows sealed\n## archive\n", len(recs), roll.Sealed())
	buf.Write(archive.Bytes())
	for i, width := range append([]time.Duration{0}, tiers...) {
		// The raw tier is listed in full by the archive above; its
		// /windows reply keeps the newest three.
		limit := 0
		if i == 0 {
			limit = 3
		}
		wins, total, err := store.Windows(time.Time{}, time.Time{}, width, limit)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "## /windows tier=%v limit=%d\n", width, limit)
		goldenEncode(t, &buf, windowsListing{Count: total, Listed: len(wins), Windows: wins}, true)
	}
	for _, q := range []struct {
		since time.Time
		step  time.Duration
		group string
	}{
		{time.Time{}, 0, GroupTotal},
		{time.Time{}, 10 * time.Minute, GroupTotal},
		{time.Time{}, 30 * time.Minute, GroupProvider},
		{w0.Add(40 * time.Minute), time.Hour, GroupPlatform},
		{time.Time{}, 20 * time.Minute, GroupModel},
	} {
		res, err := store.Query(q.since, time.Time{}, q.step, q.group)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&buf, "## /query since=%s step=%v by=%q\n", q.since.Format(time.RFC3339), q.step, q.group)
		goldenEncode(t, &buf, res, false)
	}

	// The archive reloads into a store that re-encodes it exactly.
	reloaded := NewStore(StoreConfig{Tiers: tiers})
	if n, err := reloaded.Reload(bytes.NewReader(archive.Bytes())); err != nil || n != roll.Sealed() {
		t.Fatalf("reload: %d windows, %v; want %d", n, err, roll.Sealed())
	}
	raw, _, err := reloaded.Windows(time.Time{}, time.Time{}, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	var reencoded bytes.Buffer
	for _, w := range raw {
		goldenEncode(t, &reencoded, w, false)
	}
	if !bytes.Equal(reencoded.Bytes(), archive.Bytes()) {
		t.Error("reloaded raw windows re-encode differently from the archive")
	}
	if got, want := encodeTiers(t, reloaded, tiers), encodeTiers(t, store, tiers); !bytes.Equal(got, want) {
		t.Error("reloaded tiers re-encode differently from the live store's")
	}

	path := filepath.FromSlash(windowsGoldenPath)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		got, exp := bufio.NewScanner(bytes.NewReader(buf.Bytes())), bufio.NewScanner(bytes.NewReader(want))
		got.Buffer(nil, 16<<20)
		exp.Buffer(nil, 16<<20)
		for line := 1; ; line++ {
			g, e := got.Scan(), exp.Scan()
			if !g || !e {
				t.Fatalf("windows differ from %s: one side ends at line %d", path, line)
			}
			if !bytes.Equal(got.Bytes(), exp.Bytes()) {
				t.Fatalf("windows differ from %s at line %d:\ngot:  %.400s\nwant: %.400s", path, line, got.Bytes(), exp.Bytes())
			}
		}
	}
}
