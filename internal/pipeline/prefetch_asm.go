//go:build amd64

package pipeline

// prefetch asks the CPU to pull the cache lines holding p[0] and p[63] into
// L1 without waiting for them: a hint that never faults, whatever p points
// at, and retires at once, where a load of the same byte would hold up every
// later instruction until the line arrived.
//
//go:noescape
func prefetch(p *byte)
