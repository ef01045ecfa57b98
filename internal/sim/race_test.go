//go:build race

package sim

// raceEnabled reports whether the race detector is on. Under it,
// sync.Pool drops a random share of the values put back, so a pooled
// executor rebuilds its scratch at random rounds and allocation counts
// stop being deterministic.
const raceEnabled = true
