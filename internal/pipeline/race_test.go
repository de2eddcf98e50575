//go:build race

package pipeline

// raceEnabled reports whether the tests were built with the race detector.
const raceEnabled = true
