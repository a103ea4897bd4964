package mesh

import (
	"runtime/debug"
	"testing"
)

// TestGenerateRowsAllocsConstant extends sparse's TestConverterAllocsConstant
// rule to the generators: a block of rows costs the same number of
// allocations at every size — no per-row allocation, no slice grown by
// doubling. Stencil n = 100 / 1,600 / 25,600; FEM n = 64 / 1,331 / 24,389.
func TestGenerateRowsAllocsConstant(t *testing.T) {
	// A collection mid-count would add the runtime's own allocations.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, g := range []struct {
		name  string
		sizes []int
		run   func(size int)
	}{
		{"Problem.GenerateRows", []int{10, 40, 160}, func(s int) { PaperProblem(s).GenerateGlobal() }},
		{"FEMProblem.GenerateRows", []int{5, 12, 30}, func(s int) { DefaultFEMProblem(s, 7).GenerateGlobal() }},
	} {
		var counts []float64
		for _, s := range g.sizes {
			counts = append(counts, leastAllocs(1, func() { g.run(s) }))
		}
		if counts[1] != counts[0] || counts[2] != counts[0] {
			t.Errorf("%s allocates %v objects at the three sizes, want one constant", g.name, counts)
		}
	}
}

// leastAllocs is the least of three testing.AllocsPerRun(runs, f)
// counts. AllocsPerRun counts every goroutine's mallocs, so a stray
// allocation elsewhere in the test binary only ever adds to one count,
// while an allocation f itself makes shows in every one.
func leastAllocs(runs int, f func()) float64 {
	least := testing.AllocsPerRun(runs, f)
	for i := 1; i < allocSamples; i++ {
		least = min(least, testing.AllocsPerRun(runs, f))
	}
	return least
}

// allocSamples is how many counts leastAllocs takes.
const allocSamples = 3
