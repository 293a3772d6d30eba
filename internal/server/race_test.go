//go:build race

package server

// raceEnabled reports a race-detector build, under which sync.Pool
// drops a share of what it is given on purpose: allocation counts of
// pooled paths mean nothing there.
const raceEnabled = true
