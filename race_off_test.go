//go:build !race

package extsched

// raceEnabled reports whether the tests were built with -race.
const raceEnabled = false
