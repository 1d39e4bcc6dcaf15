//go:build race

package optimizer

// raceEnabled reports whether the race detector instruments this build;
// allocation-count tests skip themselves under it.
const raceEnabled = true
