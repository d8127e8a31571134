//go:build !race

package core

// raceEnabled reports a race-detector build, whose instrumentation
// allocates: allocation pins skip under it.
const raceEnabled = false
