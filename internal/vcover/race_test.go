//go:build race

package vcover

// raceEnabled reports whether the race detector is on. Under it,
// sync.Pool drops a random share of the values put back, so pooled
// solver scratch is rebuilt at random and allocation counts stop being
// deterministic.
const raceEnabled = true
