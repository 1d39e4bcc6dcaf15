//go:build race

package proto

// raceEnabled reports whether the race detector instruments this build;
// the allocation ceilings skip themselves under it.
const raceEnabled = true
