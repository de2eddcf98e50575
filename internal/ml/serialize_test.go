package ml

import (
	"bytes"
	"encoding/gob"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"
)

// fixtureForest is the configuration testdata/forest.gob was fitted with,
// on fixtureDataset, by the pointer-tree build that preceded the preorder
// layout; testdata/forest.proba holds that build's PredictProba of the
// dataset's first rows, one row per line.
var fixtureForest = ForestConfig{NumTrees: 4, MaxDepth: 5, Seed: 9}

// TestForestBlobFixture pins the saved format across builds: the fixture
// loads, marshals back to the same bytes, predicts what the build that wrote
// it predicted (compiled and reference alike), and a forest fitted today from
// the same data and seed marshals to the same bytes.
func TestForestBlobFixture(t *testing.T) {
	blob, err := os.ReadFile("testdata/forest.gob")
	if err != nil {
		t.Fatal(err)
	}
	probaText, err := os.ReadFile("testdata/forest.proba")
	if err != nil {
		t.Fatal(err)
	}
	var f RandomForest
	if err := f.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	again, err := f.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, blob) {
		t.Error("the fixture does not marshal back to its own bytes")
	}

	d := fixtureDataset(t)
	fitted := &RandomForest{Config: fixtureForest}
	fitted.Fit(d)
	if fb, err := fitted.MarshalBinary(); err != nil || !bytes.Equal(fb, blob) {
		t.Errorf("a forest fitted from the fixture's data and seed marshals to other bytes (err %v)", err)
	}

	cf, err := CompileForest(&f, d.NumFeatures())
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(probaText)), "\n")
	var ref, comp []float64
	for ri, line := range lines {
		ref = f.PredictProbaInto(d.X[ri], ref)
		comp = cf.PredictProbaInto(d.X[ri], comp)
		fields := strings.Fields(line)
		if len(fields) != len(ref) || len(comp) != len(ref) {
			t.Fatalf("row %d: %d saved classes, reference %d, compiled %d", ri, len(fields), len(ref), len(comp))
		}
		for c, s := range fields {
			want, err := strconv.ParseFloat(s, 64)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(ref[c]) != math.Float64bits(want) || math.Float64bits(comp[c]) != math.Float64bits(want) {
				t.Fatalf("row %d class %d: reference %v, compiled %v, saved %v", ri, c, ref[c], comp[c], want)
			}
		}
	}
}

// hostileForestBlobs are gob-valid forests whose trees are not preorder
// trees, each of which UnmarshalBinary must refuse.
func hostileForestBlobs(t testing.TB) map[string][]byte {
	t.Helper()
	leaf := flatNode{Left: -1, Right: -1, Proba: []float64{1}}
	blob := func(nodes ...flatNode) []byte {
		var buf bytes.Buffer
		ff := flatForest{Trees: []flatTree{{Nodes: nodes}}}
		if err := gob.NewEncoder(&buf).Encode(ff); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	return map[string][]byte{
		"self-loop":            blob(flatNode{Left: 0, Right: 0}),
		"shared child":         blob(flatNode{Left: 1, Right: 1}, leaf),
		"right before left":    blob(flatNode{Left: 2, Right: 1}, leaf, leaf),
		"out-of-range child":   blob(flatNode{Left: 1, Right: 5}, leaf, leaf),
		"negative feature":     blob(flatNode{Feature: -1, Left: 1, Right: 2}, leaf, leaf),
		"empty tree":           blob(),
		"leaf without classes": blob(flatNode{Left: -1, Right: -1}),
		"left subtree split":   blob(flatNode{Left: 1, Right: 3}, flatNode{Left: 2, Right: 4}, leaf, leaf, leaf),
	}
}

// TestUnmarshalRefusesMalformedTrees pins that a blob holding anything but
// a preorder tree is refused with an error, and leaves the forest it was
// loaded into as it was.
func TestUnmarshalRefusesMalformedTrees(t *testing.T) {
	f, _, d := compiledFixture(t)
	want := f.PredictProba(d.X[0])
	for name, blob := range hostileForestBlobs(t) {
		if err := f.UnmarshalBinary(blob); err == nil {
			t.Errorf("%s: UnmarshalBinary accepted the blob", name)
		}
		if got := f.PredictProba(d.X[0]); !slicesEqualBits(got, want) {
			t.Errorf("%s: a refused blob changed the forest", name)
		}
	}
}

func slicesEqualBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// FuzzForestBlob feeds arbitrary bytes to UnmarshalBinary. A blob it loads
// must compile for rows one past its widest split feature without panicking,
// and the compiled and reference walks must predict the same bits.
func FuzzForestBlob(f *testing.F) {
	for _, blob := range hostileForestBlobs(f) {
		f.Add(blob, 0.5)
	}
	trained, _, _ := compiledFixture(f)
	blob, err := trained.MarshalBinary()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob, 3.0)
	f.Fuzz(func(t *testing.T, blob []byte, v float64) {
		var rf RandomForest
		if rf.UnmarshalBinary(blob) != nil {
			return
		}
		maxFeat := 0
		for _, tree := range rf.trees {
			for _, n := range tree.nodes {
				if n.Left >= 0 {
					maxFeat = max(maxFeat, n.Feature)
				}
			}
		}
		if maxFeat >= 1<<16 {
			return // loads, but no row worth allocating reaches it
		}
		x := make([]float64, maxFeat+1)
		for i := range x {
			x[i] = v * float64(i+1)
		}
		var ref, comp []float64
		refC, refP := rf.PredictInto(x, &ref)
		cf, err := CompileForest(&rf, len(x))
		if err != nil {
			return
		}
		compC, compP := cf.PredictInto(x, &comp)
		if !slicesEqualBits(ref, comp) || refC != compC || math.Float64bits(refP) != math.Float64bits(compP) {
			t.Fatalf("compiled (%d, %v, %v) != reference (%d, %v, %v)", compC, compP, comp, refC, refP, ref)
		}
	})
}
