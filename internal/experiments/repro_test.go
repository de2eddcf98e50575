package experiments

import (
	"bytes"
	"flag"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"unicode/utf8"

	"videoplat/internal/baselines"
)

var update = flag.Bool("update", false, "rewrite "+reproPath+" from the catalog")

// reproPath is the checked-in output of `vpexperiments -scale 0.04 all`.
const reproPath = "../../docs/repro/experiments.txt"

// TestReproducedEvaluationUnchanged regenerates every catalog experiment at
// the checked-in scale, rendered as vpexperiments prints it, and diffs the
// result with docs/repro/experiments.txt byte for byte: a change that moves
// one table cell or reorders one figure's attributes fails here, where the
// shape tests above let it through. The diff is exact on amd64 only, because
// other compilers may fuse a multiply and an add and move the last digit; the
// race detector makes the run too slow to be worth it. Run with -update to
// rewrite the file after a change that is meant to move the evaluation.
func TestReproducedEvaluationUnchanged(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the checked-in evaluation is exact on amd64, not %s", runtime.GOARCH)
	}
	if raceBuild() {
		t.Skip("too slow under the race detector")
	}
	ctx := DefaultContext()
	ctx.Scale = 0.04
	var b strings.Builder
	for _, e := range Catalog {
		rs, err := e.Run(ctx)
		if err != nil {
			t.Fatalf("%s: %v", e.Name, err)
		}
		for _, r := range rs {
			b.WriteString(r.String())
			b.WriteByte('\n')
		}
	}
	got := []byte(b.String())
	if *update {
		if err := os.WriteFile(reproPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(reproPath)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s line %d:\n got  %q\n want %q\n(%d lines regenerated, %d checked in; -update rewrites the file)",
				reproPath, i+1, g, w, len(gl), len(wl))
		}
	}
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestTable6ColumnsAligned reads the checked-in Table 6 block and requires
// every row, the paper's rows included, to be as wide as the header, so a
// method label longer than the others cannot shift its accuracies out of
// their columns.
func TestTable6ColumnsAligned(t *testing.T) {
	text, err := os.ReadFile(reproPath)
	if err != nil {
		t.Fatal(err)
	}
	_, block, ok := strings.Cut(string(text), "=== Table 6:")
	if !ok {
		t.Fatalf("%s has no Table 6 block", reproPath)
	}
	lines := strings.Split(block, "\n")[1:] // after the title
	header := lines[0]
	rows := 0
	for _, row := range lines[1:] {
		if strings.HasPrefix(row, "paper ordering") {
			break
		}
		rows++
		if got, want := utf8.RuneCountInString(row), utf8.RuneCountInString(header); got != want {
			t.Errorf("row %q is %d runes wide, the header %d", row, got, want)
		}
	}
	if rows != 2*(1+len(baselines.All())) {
		t.Errorf("%d rows under the header, want a row and a paper row for Ours and each baseline", rows)
	}
}

// TestReproPrintsNoNaN reads the checked-in evaluation and requires that no
// line prints NaN: a median or mean over no predictions is shown as what it
// is, an empty side, not as a number.
func TestReproPrintsNoNaN(t *testing.T) {
	text, err := os.ReadFile(reproPath)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(string(text), "\n") {
		if strings.Contains(line, "NaN") {
			t.Errorf("%s line %d prints NaN: %q", reproPath, i+1, line)
		}
	}
}
