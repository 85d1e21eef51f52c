//go:build race

package wire

// raceEnabled reports a -race build, where sync.Pool drops a share of
// its puts on purpose, so allocation gates do not hold.
const raceEnabled = true
