// Package mlwire holds the forest settings as saved blobs spell them. gob
// writes a struct's type name and field names, not its package, so these
// types keep every forest and bank blob written since the format began
// byte-identical while ml's in-memory configs change. The serializers copy
// to and from them; nothing else should use them.
package mlwire

// ForestConfig is a saved ml.ForestConfig. MinSamplesLeaf is written as
// zero: ml has no such setting, and no saved blob sets it.
type ForestConfig struct {
	NumTrees       int
	MaxDepth       int
	MaxFeatures    int
	MinSamplesLeaf int
	Seed           uint64
}

// TreeConfig is a saved ml.TreeConfig.
type TreeConfig struct {
	MaxDepth       int
	MinSamplesLeaf int
	MaxFeatures    int
	Seed           uint64
}
