//go:build race

package aztec

// raceEnabled reports whether this test binary was built with the race
// detector. Under -race, sync.Pool deliberately drops a quarter of all
// Puts, so the pooled residual exchange cannot sustain strict zero
// allocations; the allocation gate still runs the exchange there.
const raceEnabled = true
