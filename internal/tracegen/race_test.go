//go:build race

package tracegen

// raceEnabled reports whether the tests were built with the race detector.
const raceEnabled = true
