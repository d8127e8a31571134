//go:build !race

package radio

// poisonPayloads is set only in race-detector builds (see
// poison_race.go).
const poisonPayloads = false
