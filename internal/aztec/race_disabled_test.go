//go:build !race

package aztec

// raceEnabled: see race_enabled_test.go.
const raceEnabled = false
