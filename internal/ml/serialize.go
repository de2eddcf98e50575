package ml

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"

	"videoplat/internal/ml/mlwire"
)

// flatTree and flatForest are the saved forest: each tree's preorder nodes
// as the tree holds them. The type names are part of the format, and so are
// the configs' (see mlwire), which are copied here and nowhere else.
type flatTree struct {
	Config mlwire.TreeConfig
	Nodes  []flatNode
}

type flatForest struct {
	Config mlwire.ForestConfig
	Trees  []flatTree
}

// MarshalBinary serializes the trained forest with encoding/gob.
func (f *RandomForest) MarshalBinary() ([]byte, error) {
	c := f.Config
	ff := flatForest{Config: mlwire.ForestConfig{NumTrees: c.NumTrees, MaxDepth: c.MaxDepth, MaxFeatures: c.MaxFeatures, Seed: c.Seed}}
	for _, t := range f.trees {
		tc := t.Config
		ff.Trees = append(ff.Trees, flatTree{
			Config: mlwire.TreeConfig{MaxDepth: tc.MaxDepth, MaxFeatures: tc.MaxFeatures, Seed: tc.Seed},
			Nodes:  t.nodes,
		})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ff); err != nil {
		return nil, fmt.Errorf("ml: encoding forest: %w", err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary restores a forest serialized by MarshalBinary. It refuses
// any tree that is not a preorder tree as Fit lays one out (see checkTree),
// so a loaded forest can be walked without bounds or cycle checks.
func (f *RandomForest) UnmarshalBinary(data []byte) error {
	var ff flatForest
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&ff); err != nil {
		return fmt.Errorf("ml: decoding forest: %w", err)
	}
	trees := make([]*DecisionTree, len(ff.Trees))
	classes := 0
	for i, ft := range ff.Trees {
		width, err := checkTree(ft.Nodes)
		if err != nil {
			return fmt.Errorf("ml: tree %d: %w", i, err)
		}
		tc := TreeConfig{MaxDepth: ft.Config.MaxDepth, MaxFeatures: ft.Config.MaxFeatures, Seed: ft.Config.Seed}
		trees[i] = &DecisionTree{Config: tc, nodes: ft.Nodes, classes: width}
		classes = max(classes, width)
	}
	c := ff.Config
	f.Config = ForestConfig{NumTrees: c.NumTrees, MaxDepth: c.MaxDepth, MaxFeatures: c.MaxFeatures, Seed: c.Seed}
	f.trees, f.classes = trees, classes
	return nil
}

// checkTree verifies in one backward pass that nodes is a preorder tree:
// every split's left child is the next node and its right child starts
// right where the left subtree ends, every leaf has a class distribution,
// and the root's subtree spans the whole slice, so every node but the root
// is exactly one split's child. It returns the widest leaf distribution.
func checkTree(nodes []flatNode) (int, error) {
	if len(nodes) == 0 {
		return 0, errors.New("no nodes")
	}
	end := make([]int, len(nodes)) // end[i]: one past the last node of i's subtree
	width := 0
	for i := len(nodes) - 1; i >= 0; i-- {
		n := nodes[i]
		switch {
		case n.Left == -1 && n.Right == -1:
			if len(n.Proba) == 0 {
				return 0, fmt.Errorf("leaf %d has no class distribution", i)
			}
			end[i] = i + 1
			width = max(width, len(n.Proba))
		case n.Left != i+1 || n.Right <= i+1 || n.Right >= len(nodes) || end[i+1] != n.Right:
			return 0, fmt.Errorf("split %d has children %d and %d, not %d and the end of its left subtree", i, n.Left, n.Right, i+1)
		case n.Feature < 0:
			return 0, fmt.Errorf("split %d is on feature %d", i, n.Feature)
		default:
			end[i] = end[n.Right]
		}
	}
	if end[0] != len(nodes) {
		return 0, fmt.Errorf("root's subtree ends at node %d of %d", end[0], len(nodes))
	}
	return width, nil
}
