package ml

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// cnode is one compiled tree node: 16 bytes, so a root-to-leaf walk touches
// one cache line per visited node, where the reference walk reads 56-byte
// nodes that carry their leaf distributions. Trees keep the preorder layout
// they are fitted and saved in, with the left subtree immediately after its
// parent, so the left child is implicitly id+1 and only the right child
// needs storing.
//
// Leaves are self-loops: thresh is NaN (every `x <= NaN` is false) and right
// is the leaf's own id, so a walk that reaches a leaf parks there harmlessly.
// That lets a group of walks step together without testing each one for
// leaf arrival, and stop at the first step that moves none of them. A step
// picks each lane's child arithmetically (see PredictBatchInto), so the only
// branch a walk takes on its data is that one stop test per step.
type cnode struct {
	// feat is the split feature for internal nodes; 0 for leaves (a safe
	// dummy load — the NaN compare discards it).
	feat int32
	// right is the right child's node id for internal nodes; for leaves,
	// the leaf's own id (the self-loop).
	right  int32
	thresh float64
}

// CompiledForest is a fitted RandomForest lowered into the serving
// representation: every tree's nodes packed back to back into one
// contiguous array of 16-byte records (split feature, threshold, right-child
// id — the left child is implicit in the preorder layout) with leaf
// distributions gathered into one shared probability table. Where the
// reference walk visits ~50 separately allocated trees one at a time per
// prediction, the compiled form streams through one dense array whose hot
// prefix stays cache-resident across predictions, walking eight trees at
// once.
//
// Accumulation happens in the same tree order and with the same float
// operations as RandomForest.PredictProbaInto, so compiled predictions are
// byte-identical to the reference path (pinned by the golden-equivalence
// tests). A CompiledForest is immutable after CompileForest and safe for
// concurrent use; probability scratch is caller-owned.
type CompiledForest struct {
	// nodes holds every tree's records back-to-back; roots[t] is tree t's
	// root id. Within a tree the layout is preorder (parent, then the whole
	// left subtree, then the right), so a walk moves forward through memory
	// until it parks on a leaf.
	nodes []cnode
	roots []int32
	// The shared leaf-distribution table, stored sparse: row r's entries are
	// probaIdx/probaVal[rowOff[r]:rowOff[r+1]] — only the nonzero class
	// probabilities, in ascending class order, values copied verbatim from
	// the reference trees. Skipping the exact-+0.0 entries is bitwise a
	// no-op (accumulators are non-negative, and x + 0.0 == x for any
	// non-negative x), so sparse accumulation stays byte-identical to the
	// reference dense loop while costing ~one add per tree: forest leaves
	// are overwhelmingly pure, so most rows hold a single entry.
	// leafRow[id] is the table row for leaf node id (0 for internal nodes)
	// — consulted once per walk, after the descent ends. Bitwise-identical
	// distributions share one row, keeping the table cache-resident.
	rowOff   []int32
	probaIdx []int32
	probaVal []float64
	leafRow  []int32

	classes int
	trees   int
	// realNodes is the node count before the power-of-two padding appended
	// so the walk can mask-index nodes without a bounds check.
	realNodes int
}

// errEmptyForest and errRaggedForest are the CompileForest failure modes; a
// bank holding such a forest is refused when it is built or loaded.
var (
	errEmptyForest  = errors.New("ml: cannot compile an empty forest")
	errRaggedForest = errors.New("ml: cannot compile a forest with mixed leaf-distribution widths")
)

// CompileForest lowers a fitted forest into its compiled serving form for
// rows of width features. It fails for ensembles the compiled layout cannot
// represent faithfully or that would read past such a row — no trees, leaf
// distributions of differing widths, a NaN split threshold, or a split on a
// feature at or past width (impossible for forests trained by Fit on rows of
// that width, defensive for hand-assembled or corrupted ones).
func CompileForest(f *RandomForest, width int) (*CompiledForest, error) {
	if f == nil || len(f.trees) == 0 {
		return nil, errEmptyForest
	}
	cf := &CompiledForest{classes: -1, trees: len(f.trees)}
	nodes := 0
	for _, t := range f.trees {
		nodes += len(t.nodes)
	}
	cf.nodes = make([]cnode, 0, nodes)
	cf.leafRow = make([]int32, 0, nodes)
	cf.rowOff = []int32{0}
	cf.roots = make([]int32, 0, len(f.trees))
	// Identical leaf distributions (bitwise — overwhelmingly the pure
	// single-class leaves a forest bottoms out in) share one proba-table
	// row, which keeps the table small enough to stay cache-resident during
	// the accumulate pass. Sharing storage of equal values cannot change
	// any result.
	lc := compileCtx{cf: cf, dedup: make(map[string]int32)}
	for _, t := range f.trees {
		cf.roots = append(cf.roots, int32(len(cf.nodes)))
		if err := lc.lower(t.nodes, width); err != nil {
			return nil, err
		}
	}
	// Pad the node array to a power of two with unreachable self-loops so
	// the walk can index it as nodes[id&mask] with mask = len-1: the
	// mask is a no-op for every real id, and it lets the compiler prove the
	// index in bounds, dropping the bounds check from the hottest loop.
	cf.realNodes = len(cf.nodes)
	for len(cf.nodes)&(len(cf.nodes)-1) != 0 {
		id := int32(len(cf.nodes))
		cf.nodes = append(cf.nodes, cnode{right: id, thresh: math.NaN()})
		cf.leafRow = append(cf.leafRow, 0)
	}
	return cf, nil
}

// compileCtx carries compile-only state (the leaf-distribution dedup index)
// that has no place in the immutable serving struct.
type compileCtx struct {
	cf    *CompiledForest
	dedup map[string]int32
	key   []byte
}

// probaRow interns one leaf distribution in the shared sparse table and
// returns its row index, reusing an existing row on a bitwise match. Only the
// entries whose bits differ from +0.0 are stored: exact positive zeros are
// the one value whose addition never changes a non-negative accumulator
// bitwise, so dropping them preserves byte-identity with the dense reference
// loop (a -0.0 — never produced by Fit, but cheap to honor — is kept).
func (lc *compileCtx) probaRow(proba []float64) int32 {
	lc.key = lc.key[:0]
	for _, v := range proba {
		lc.key = binary.LittleEndian.AppendUint64(lc.key, math.Float64bits(v))
	}
	if row, ok := lc.dedup[string(lc.key)]; ok {
		return row
	}
	cf := lc.cf
	row := int32(len(cf.rowOff) - 1)
	for i, v := range proba {
		if math.Float64bits(v) != 0 {
			cf.probaIdx = append(cf.probaIdx, int32(i))
			cf.probaVal = append(cf.probaVal, v)
		}
	}
	cf.rowOff = append(cf.rowOff, int32(len(cf.probaIdx)))
	lc.dedup[string(lc.key)] = row
	return row
}

// lower appends one tree's preorder nodes at the end of the forest's array,
// where every left child stays id+1 and each right child is shifted by the
// tree's offset. Every tree comes from Fit or through checkTree, which
// refuses a right child at or before its split, so a walk's node id only
// grows until it parks on a leaf: the walk always ends.
func (lc *compileCtx) lower(nodes []flatNode, width int) error {
	cf := lc.cf
	base := int32(len(cf.nodes))
	for i, n := range nodes {
		id := base + int32(i)
		if n.Left < 0 {
			if cf.classes < 0 {
				cf.classes = len(n.Proba)
			} else if len(n.Proba) != cf.classes {
				return errRaggedForest
			}
			cf.nodes = append(cf.nodes, cnode{feat: 0, right: id, thresh: math.NaN()})
			cf.leafRow = append(cf.leafRow, lc.probaRow(n.Proba))
			continue
		}
		if uint(n.Feature) >= uint(width) { // a negative feature wraps past width too
			return fmt.Errorf("ml: cannot compile a split on feature %d for rows of width %d", n.Feature, width)
		}
		if math.IsNaN(n.Threshold) {
			// NaN marks leaves in the compiled form; an internal NaN split (never
			// produced by Fit) cannot be represented faithfully.
			return errors.New("ml: cannot compile a forest with NaN split thresholds")
		}
		cf.nodes = append(cf.nodes, cnode{feat: int32(n.Feature), right: base + int32(n.Right), thresh: n.Threshold})
		cf.leafRow = append(cf.leafRow, 0)
	}
	return nil
}

// NumTrees reports the compiled ensemble size.
func (cf *CompiledForest) NumTrees() int { return cf.trees }

// NumClasses reports the width of every leaf distribution (and so of every
// probability vector the compiled forest produces).
func (cf *CompiledForest) NumClasses() int { return cf.classes }

// SplitFeatures returns the features any split of the forest reads, in
// ascending order: the only columns of a row its predictions depend on.
func (cf *CompiledForest) SplitFeatures() []int {
	var feats []int
	for id, nd := range cf.nodes[:cf.realNodes] {
		if nd.right != int32(id) { // a leaf's feat is a dummy
			feats = append(feats, int(nd.feat))
		}
	}
	slices.Sort(feats)
	return slices.Compact(feats)
}

// NumNodes reports the total compiled node count across all trees
// (excluding the power-of-two padding records; Bytes includes them).
func (cf *CompiledForest) NumNodes() int { return cf.realNodes }

// Bytes reports the resident size of the compiled arrays — the serving-index
// memory an operator pays per compiled model.
func (cf *CompiledForest) Bytes() int64 {
	return int64(len(cf.nodes))*16 + int64(len(cf.probaVal))*8 +
		int64(len(cf.probaIdx)+len(cf.rowOff)+len(cf.leafRow)+len(cf.roots))*4
}

// PredictProbaInto averages member probabilities into out's capacity,
// byte-identical to RandomForest.PredictProbaInto on the forest this was
// compiled from. It is the one-row case of PredictBatchInto — there is one
// compiled walk. The returned slice is the (possibly grown) buffer.
// Zero-allocation with a warm buffer, pinned by TestCompiledForestZeroAlloc.
func (cf *CompiledForest) PredictProbaInto(x, out []float64) []float64 {
	return cf.PredictBatchInto(x, len(x), out)
}

// PredictInto returns the argmax class index and its probability, reusing
// *proba as the probability scratch — the compiled twin of
// RandomForest.PredictInto, with identical argmax tie-breaking and the same
// zero-allocation pin (TestCompiledForestZeroAlloc).
func (cf *CompiledForest) PredictInto(x []float64, proba *[]float64) (int, float64) {
	*proba = cf.PredictProbaInto(x, *proba)
	best, bestP := 0, -1.0
	for i, v := range *proba {
		if v > bestP {
			best, bestP = i, v
		}
	}
	return best, bestP
}

// PredictBatchInto is the compiled walk. It evaluates n = len(rows)/stride
// flows in one call: row r's feature vector is rows[r*stride :
// r*stride+stride], and its averaged class distribution lands in the
// returned buffer at [r*NumClasses() : (r+1)*NumClasses()]. Rows are the
// outer loop, so the cost per row does not depend on how many rows share the
// call. Each row walks its trees in tree order, eight lanes at a time, and
// a group's leaf distributions are accumulated in lane order before the next
// group starts; the sums are then divided by the tree count, in the same
// float operation order as RandomForest.PredictProbaInto, so every row's
// result is byte-identical to the reference. out is reused via its
// capacity. Zero-allocation with a warm buffer, pinned by
// TestCompiledForestZeroAlloc.
func (cf *CompiledForest) PredictBatchInto(rows []float64, stride int, out []float64) []float64 {
	n := 0
	if stride > 0 {
		n = len(rows) / stride
	}
	need := n * cf.classes
	if cap(out) < need {
		out = make([]float64, need) // cold first-call growth; steady state reuses out
	} else {
		out = out[:need]
		clear(out)
	}
	nodes := cf.nodes
	classes := cf.classes
	roots := cf.roots
	leafRow := cf.leafRow
	rowOff := cf.rowOff
	probaIdx := cf.probaIdx
	probaVal := cf.probaVal
	if len(nodes) == 0 {
		return out
	}
	// A single walk is a serial chain of data-dependent node loads (each
	// level's address depends on the previous), so one chain cannot go
	// faster than one memory latency per level. Eight lanes descending
	// together, held in registers, give the CPU eight independent chains to
	// overlap, while every chain reads the same L1-hot feature row. A lane
	// that reaches its leaf parks on the leaf's self-loop, so the steps carry
	// no per-lane leaf test, only one test per step that some lane moved.
	//
	// Each lane's child is a select, not an if: the mask -b2i(cmp) is all
	// ones when the row goes left (c+1) and zero when it goes right. Written
	// as an if, gc emits UCOMISD then a conditional jump per lane, which
	// mispredicts wherever rows diverge; written this way it emits UCOMISD
	// then SETCC (check with `go build -gcflags=-S ./internal/ml`), with the
	// same comparison, so every child and so every prediction is unchanged.
	mask := len(nodes) - 1 // power-of-two padding: masking proves bounds
	var lane [8]int32
	for r := 0; r < n; r++ {
		x := rows[r*stride : r*stride+stride]
		acc := out[r*classes : (r+1)*classes]
		for g := 0; g < len(roots); g += 8 {
			group := roots[g:min(g+8, len(roots))]
			// A short last group fills its spare lanes with its first
			// tree; their leaves are never read.
			lane = [8]int32{group[0], group[0], group[0], group[0], group[0], group[0], group[0], group[0]}
			copy(lane[:], group)
			c0, c1, c2, c3 := lane[0], lane[1], lane[2], lane[3]
			c4, c5, c6, c7 := lane[4], lane[5], lane[6], lane[7]
			for {
				nd := &nodes[int(c0)&mask]
				n0 := nd.right + (c0+1-nd.right)&-b2i(x[nd.feat] <= nd.thresh)
				nd = &nodes[int(c1)&mask]
				n1 := nd.right + (c1+1-nd.right)&-b2i(x[nd.feat] <= nd.thresh)
				nd = &nodes[int(c2)&mask]
				n2 := nd.right + (c2+1-nd.right)&-b2i(x[nd.feat] <= nd.thresh)
				nd = &nodes[int(c3)&mask]
				n3 := nd.right + (c3+1-nd.right)&-b2i(x[nd.feat] <= nd.thresh)
				nd = &nodes[int(c4)&mask]
				n4 := nd.right + (c4+1-nd.right)&-b2i(x[nd.feat] <= nd.thresh)
				nd = &nodes[int(c5)&mask]
				n5 := nd.right + (c5+1-nd.right)&-b2i(x[nd.feat] <= nd.thresh)
				nd = &nodes[int(c6)&mask]
				n6 := nd.right + (c6+1-nd.right)&-b2i(x[nd.feat] <= nd.thresh)
				nd = &nodes[int(c7)&mask]
				n7 := nd.right + (c7+1-nd.right)&-b2i(x[nd.feat] <= nd.thresh)
				moved := (n0 ^ c0) | (n1 ^ c1) | (n2 ^ c2) | (n3 ^ c3) | (n4 ^ c4) | (n5 ^ c5) | (n6 ^ c6) | (n7 ^ c7)
				c0, c1, c2, c3, c4, c5, c6, c7 = n0, n1, n2, n3, n4, n5, n6, n7
				if moved == 0 {
					break // every lane is parked on its leaf
				}
			}
			lane = [8]int32{c0, c1, c2, c3, c4, c5, c6, c7}
			for _, id := range lane[:len(group)] {
				row := leafRow[id]
				for k := rowOff[row]; k < rowOff[row+1]; k++ {
					acc[probaIdx[k]] += probaVal[k]
				}
			}
		}
	}
	for i := range out {
		out[i] /= float64(cf.trees)
	}
	return out
}

// b2i is 1 for true and 0 for false; gc lowers it to a SETcc, not a jump.
func b2i(b bool) int32 {
	if b {
		return 1
	}
	return 0
}
