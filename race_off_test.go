//go:build !race

package tagmatch_test

const raceEnabled = false
