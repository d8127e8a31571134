//go:build !race

package core

// poisonScratch is set only in race-detector builds (see poison_race.go).
const poisonScratch = false
