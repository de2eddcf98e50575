//go:build race

package quicproto

// raceEnabled reports whether the tests were built with the race detector.
const raceEnabled = true
