//go:build !amd64

package pipeline

// prefetch is a no-op where the package carries no prefetch instruction:
// HandlePacketBatch then takes the cache miss on the first header load, as
// it would without the hint.
func prefetch(*byte) {}
