//go:build race

package sim

// raceEnabled reports a build with the race detector. sync.Pool then drops a
// random share of its Puts, so a run may build a new machine and allocation
// counts cannot be pinned.
const raceEnabled = true
