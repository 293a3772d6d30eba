//go:build !race

package tables

const raceEnabled = false
