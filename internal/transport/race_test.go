//go:build race

package transport

// raceEnabled reports a race-detector build, whose instrumentation
// allocates: allocation pins skip under it.
const raceEnabled = true
