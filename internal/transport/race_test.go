//go:build race

package transport

// raceEnabled reports that the race detector is active: it randomizes
// sync.Pool reuse, so exact allocation-count assertions are skipped.
const raceEnabled = true
