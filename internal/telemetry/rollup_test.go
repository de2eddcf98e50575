package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"videoplat/internal/fingerprint"
	"videoplat/internal/pipeline"
)

func rollRec(prov fingerprint.Provider, platform string, start time.Time, dur time.Duration, bytesDown int64) *pipeline.FlowRecord {
	r := &pipeline.FlowRecord{
		Provider:  prov,
		FirstSeen: start,
		LastSeen:  start.Add(dur),
		BytesDown: bytesDown,
	}
	if platform != "" {
		r.Verdict = pipeline.VerdictClassified
		r.Content = true
		r.Prediction = pipeline.Prediction{Status: pipeline.Composite, Platform: platform}
	}
	return r
}

var w0 = time.Date(2023, 7, 7, 12, 0, 0, 0, time.UTC)

func TestRollupTumblingWindows(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONLSink(&buf)
	r := NewRollup(time.Minute, sink)

	// Two flows finalize in the 12:00 window, one in 12:02.
	r.Add(rollRec(fingerprint.YouTube, "windows_chrome", w0, 10*time.Second, 10<<20))
	r.Add(rollRec(fingerprint.Netflix, "", w0.Add(5*time.Second), 20*time.Second, 5<<20))
	if got := r.Sealed(); got != 0 {
		t.Fatalf("sealed = %d before boundary", got)
	}
	cur := r.Current()
	if cur == nil || cur.Flows != 2 || cur.ClassifiedFlows != 1 {
		t.Fatalf("current window = %+v", cur)
	}
	if cur.ClassificationRate != 0.5 {
		t.Errorf("live classification rate = %v, want 0.5", cur.ClassificationRate)
	}

	r.Add(rollRec(fingerprint.YouTube, "iOS_nativeApp", w0.Add(2*time.Minute), 15*time.Second, 1<<20))
	if got := r.Sealed(); got != 1 {
		t.Fatalf("sealed = %d after boundary, want 1", got)
	}
	r.Flush()
	if got, want := r.Sealed(), 2; got != want {
		t.Fatalf("sealed = %d after flush, want %d", got, want)
	}
	if sink.Windows() != 2 {
		t.Fatalf("sink windows = %d", sink.Windows())
	}

	var wins []Window
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var w Window
		if err := json.Unmarshal(sc.Bytes(), &w); err != nil {
			t.Fatalf("bad JSONL line: %v", err)
		}
		wins = append(wins, w)
	}
	if len(wins) != 2 {
		t.Fatalf("parsed %d JSONL windows", len(wins))
	}

	first := wins[0]
	if !first.Start.Equal(w0) || !first.End.Equal(w0.Add(time.Minute)) {
		t.Errorf("window bounds = %v..%v", first.Start, first.End)
	}
	if first.Flows != 2 || first.ClassifiedFlows != 1 || first.ClassificationRate != 0.5 {
		t.Errorf("window totals = %+v", first)
	}
	yt := first.ByProvider["youtube"]
	if yt == nil || yt.Flows != 1 || yt.BytesDown != 10<<20 || yt.WatchSeconds != 10 {
		t.Errorf("youtube cell = %+v", yt)
	}
	if yt.MeanMbpsDown < 8 || yt.MeanMbpsDown > 9 {
		t.Errorf("youtube mean mbps = %v, want ~8.4", yt.MeanMbpsDown)
	}
	if c := first.ByPlatform["windows_chrome"]; c == nil || c.Flows != 1 {
		t.Errorf("platform cell = %+v", c)
	}
	if c := first.ByPlatform["unclassified"]; c == nil || c.Flows != 1 {
		t.Errorf("unclassified cell = %+v", c)
	}

	second := wins[1]
	if !second.Start.Equal(w0.Add(2 * time.Minute)) {
		t.Errorf("gap window not skipped: second starts %v", second.Start)
	}
	if second.Flows != 1 {
		t.Errorf("second window flows = %d", second.Flows)
	}
}

func TestRollupModelVersionAttribution(t *testing.T) {
	r := NewRollup(time.Minute, nil)
	// A hot-swap lands mid-window: flows split across two bank versions,
	// plus one classified by an ad-hoc (unversioned) bank.
	a := rollRec(fingerprint.YouTube, "windows_chrome", w0, 10*time.Second, 1<<20)
	a.ModelVersion = "v0001"
	b := rollRec(fingerprint.Netflix, "iOS_nativeApp", w0.Add(5*time.Second), 10*time.Second, 1<<20)
	b.ModelVersion = "v0002"
	c := rollRec(fingerprint.Disney, "macOS_safari", w0.Add(10*time.Second), 10*time.Second, 1<<20)
	unclassified := rollRec(fingerprint.Amazon, "", w0.Add(15*time.Second), 10*time.Second, 1<<20)
	for _, rec := range []*pipeline.FlowRecord{a, b, c, unclassified} {
		r.Add(rec)
	}
	cur := r.Current()
	want := map[string]int{"v0001": 1, "v0002": 1, "unversioned": 1}
	if len(cur.ModelVersions) != len(want) {
		t.Fatalf("model versions = %+v, want %+v", cur.ModelVersions, want)
	}
	for k, n := range want {
		if cur.ModelVersions[k] != n {
			t.Errorf("model version %s = %d, want %d", k, cur.ModelVersions[k], n)
		}
	}
}

func TestRollupLateRecords(t *testing.T) {
	r := NewRollup(time.Minute, nil)
	r.Add(rollRec(fingerprint.Disney, "", w0.Add(5*time.Minute), time.Second, 1000))
	// An idle eviction surfacing long after its flow ended.
	r.Add(rollRec(fingerprint.Disney, "", w0, 30*time.Second, 1000))
	cur := r.Current()
	if cur.Flows != 2 || cur.LateFlows != 1 {
		t.Errorf("window = flows %d late %d, want 2/1", cur.Flows, cur.LateFlows)
	}
	if r.Sealed() != 0 {
		t.Errorf("late record sealed a window")
	}
}

func TestRollupFlushEmpty(t *testing.T) {
	r := NewRollup(0, nil) // default width
	if r.Width() != time.Minute {
		t.Errorf("default width = %v", r.Width())
	}
	r.Flush() // no window yet: must not panic or seal
	if r.Sealed() != 0 || r.Current() != nil {
		t.Error("flush of empty rollup produced a window")
	}
}
