//go:build race

package tables

// raceEnabled reports a race-detector build, under which the
// single-goroutine schedule digest runs too slowly to keep.
const raceEnabled = true
