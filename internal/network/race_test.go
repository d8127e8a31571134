//go:build race

package network

// raceEnabled reports a race-detector build, whose instrumentation
// allocates: allocation pins skip under it.
const raceEnabled = true
