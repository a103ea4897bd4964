//go:build race

package core

// raceEnabled reports whether this test binary was built with the race
// detector. Under -race, sync.Pool deliberately drops a quarter of all
// Puts, so pooled comm payloads cannot sustain strict zero allocations;
// tests that pin an exact zero relax to the steady-state bound there.
const raceEnabled = true
