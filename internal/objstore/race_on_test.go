//go:build race

package objstore

const raceEnabled = true
