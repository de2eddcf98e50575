//go:build !race

package tracegen

const raceEnabled = false
