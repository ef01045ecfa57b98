//go:build !race

package m2m

// raceEnabled reports whether the race detector is on (see race_test.go).
const raceEnabled = false
