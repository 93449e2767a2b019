//go:build race

package core

// raceEnabled reports whether the race detector is on. In race mode
// sync.Pool drops a random quarter of its puts, so tests that compare
// allocation counts skip the comparison.
const raceEnabled = true
