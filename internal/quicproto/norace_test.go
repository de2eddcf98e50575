//go:build !race

package quicproto

const raceEnabled = false
