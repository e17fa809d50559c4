//go:build race

package experiments

// raceEnabled lets tests skip allocation-count assertions under the race
// detector, which instruments allocations and breaks AllocsPerRun.
const raceEnabled = true
