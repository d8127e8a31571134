//go:build race

package core

// poisonScratch is set in race-detector builds: once an engine step or a
// remote request or reply is done with the shard's tuple scratch, it is
// overwritten with poisonValue, so a retainer that kept an alias instead
// of a copy reads garbage under `go test -race`.
const poisonScratch = true
