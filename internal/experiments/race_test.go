//go:build race

package experiments

// raceEnabled reports a build with the race detector, under which allocation
// counts are not pinned.
const raceEnabled = true
