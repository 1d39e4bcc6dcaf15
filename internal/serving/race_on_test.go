//go:build race

package serving

// raceEnabled reports whether the race detector instruments this build;
// the allocation ceiling skips itself under it.
const raceEnabled = true
