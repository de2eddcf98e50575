package main

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"
	"time"

	"videoplat/internal/fingerprint"
	"videoplat/internal/obs"
	"videoplat/internal/pipeline"
	"videoplat/internal/telemetry"
)

// TestTornArchiveTail cuts a -telemetry-persist archive at every byte offset
// of its last line, as a crash mid-append would. Each time buildStore must
// reload every complete window, count the dropped fragment, journal one
// archive_truncated event carrying its byte count (none when there is no
// fragment), and leave the file ending at the last complete line, so the
// window the sink appends next lands on a line of its own and a second
// start reloads cleanly, journaling nothing.
func TestTornArchiveTail(t *testing.T) {
	var archive bytes.Buffer
	var sealed []*telemetry.Window
	roll := telemetry.NewRollup(time.Minute, telemetry.MultiSink(telemetry.NewJSONLSink(&archive), keep{&sealed}))
	t0 := time.Date(2023, 7, 7, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 12; i++ {
		last := t0.Add(time.Duration(i) * 20 * time.Second)
		roll.Add(&pipeline.FlowRecord{
			Provider:   fingerprint.Provider(i % fingerprint.NumProviders),
			Verdict:    pipeline.VerdictClassified,
			Prediction: pipeline.Prediction{Status: pipeline.Composite, Platform: "windows_chrome", PlatformConf: 0.9, PlatformMargin: 0.4},
			FirstSeen:  last.Add(-30 * time.Second),
			LastSeen:   last,
			BytesDown:  int64(1+i) << 20,
		})
	}
	roll.Flush()
	full := archive.Bytes()
	complete := len(sealed) - 1
	lastStart := bytes.LastIndexByte(full[:len(full)-1], '\n') + 1
	if complete < 1 || lastStart == 0 {
		t.Fatalf("archive of %d windows, last line at %d", len(sealed), lastStart)
	}

	// The window appended after each cut is shorter than most fragments, so
	// a fragment left in place would show past its end.
	next := &telemetry.Window{Start: sealed[len(sealed)-1].End, End: sealed[len(sealed)-1].End.Add(time.Minute), Flows: 1}
	var want bytes.Buffer
	want.Write(full[:lastStart])
	if err := telemetry.NewJSONLSink(&want).WriteWindow(next); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "w.jsonl")
	for cut := lastStart; cut < len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		journal := obs.NewJournal(0, nil)
		store, sink, closeStore, err := buildStore(time.Minute, "1440", "auto", path, journal)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		st := store.Stats()
		if st.LoadedWindows != complete || st.TruncatedTailBytes != int64(cut-lastStart) {
			t.Fatalf("cut at %d: reloaded %d windows dropping %d bytes, want %d and %d",
				cut, st.LoadedWindows, st.TruncatedTailBytes, complete, cut-lastStart)
		}
		var events []string
		if torn := cut - lastStart; torn > 0 {
			events = []string{string(obs.EventArchiveTruncated) + " bytes=" + strconv.Itoa(torn)}
		}
		if got := journaled(journal); !slices.Equal(got, events) {
			t.Fatalf("cut at %d: journaled %q, want %q", cut, got, events)
		}
		if err := sink.WriteWindow(next); err != nil {
			t.Fatal(err)
		}
		closeStore()
		if got, _ := os.ReadFile(path); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("cut at %d: the archive after one append ends\n%q\nwant\n%q", cut, got[lastStart:], want.Bytes()[lastStart:])
		}

		journal = obs.NewJournal(0, nil)
		store, _, closeStore, err = buildStore(time.Minute, "1440", "auto", path, journal)
		if err != nil {
			t.Fatalf("cut at %d, second start: %v", cut, err)
		}
		closeStore()
		if st := store.Stats(); st.LoadedWindows != complete+1 || st.TruncatedTailBytes != 0 {
			t.Fatalf("cut at %d, second start: reloaded %d windows dropping %d bytes, want %d and 0",
				cut, st.LoadedWindows, st.TruncatedTailBytes, complete+1)
		}
		if got := journaled(journal); len(got) != 0 {
			t.Fatalf("cut at %d, second start: journaled %q", cut, got)
		}
	}

	// A terminated line that does not parse is still an error.
	if err := os.WriteFile(path, append(append([]byte(nil), full[:lastStart]...), "{\"start\":\n"...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := buildStore(time.Minute, "1440", "auto", path, nil); err == nil {
		t.Fatal("a corrupt complete line reloaded without error")
	}
}

// journaled lists a journal's events as "type bytes=N".
func journaled(j *obs.Journal) []string {
	var out []string
	for _, ev := range j.Events(0, "", 0) {
		out = append(out, string(ev.Type)+" bytes="+ev.Fields["bytes"])
	}
	return out
}

// keep retains the windows a rollup seals; the rollup hands each seal a
// window of its own.
type keep struct{ wins *[]*telemetry.Window }

func (k keep) WriteWindow(w *telemetry.Window) error {
	*k.wins = append(*k.wins, w)
	return nil
}
