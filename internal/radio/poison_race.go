//go:build race

package radio

// poisonPayloads is set in race-detector builds: once ReceiveFrame
// returns, the delivery overwrites the payload with poisonByte, so a
// receiver that kept an alias instead of a copy reads garbage under
// `go test -race`.
const poisonPayloads = true
