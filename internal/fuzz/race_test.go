//go:build race

package fuzz

// raceEnabled is set in a race-detector build, whose sync.Pool drops a
// quarter of what it is given on purpose.
const raceEnabled = true
