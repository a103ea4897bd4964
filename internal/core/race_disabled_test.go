//go:build !race

package core

// raceEnabled: see race_enabled_test.go.
const raceEnabled = false
