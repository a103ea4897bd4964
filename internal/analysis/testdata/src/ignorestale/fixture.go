// Fixture for stale suppressions: the first silences a live finding and
// must not be reported; the second silences nothing and is a finding of
// its own.
package ignorestale

func folded(weights map[string]float64) float64 {
	total := 0.0
	for _, w := range weights {
		//lisi:ignore spmddet fixture: suppression in active use
		total += w
	}
	return total
}

func counted(counts map[string]int) int {
	n := 0
	for _, v := range counts {
		//lisi:ignore spmddet nothing fires on the next line
		n += v
	}
	return n
}
