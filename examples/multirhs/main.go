// Multirhs walks through the paper's §5.2 reuse scenarios with the
// direct (SuperLU-role) component:
//
//	(b) the factorization is computed once and reused,
//	(c) multiple right-hand sides are solved against the same matrix,
//	(d) the matrix values change (same pattern) and the component
//	    refactors exactly once more.
//
// The factorization counter in the LISI status vector shows the reuse.
//
//	go run ./examples/multirhs
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/pmat"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run is the example, printing to w. Its inputs are fixed, so a failed
// call is a bug: the rank panics (must), and World.Run recovers the
// panic, aborts the world so the other ranks unblock, and returns it as
// run's error.
func run(w io.Writer) error {
	const procs = 2
	const gridN = 48
	problem := mesh.PaperProblem(gridN)

	world, err := comm.NewWorld(procs)
	if err != nil {
		return err
	}
	return world.Run(func(c *comm.Comm) {
		layout, err := pmat.EvenLayout(c, problem.N())
		must(err)
		localA, b0, err := problem.GenerateLocal(layout)
		must(err)

		solver := core.NewSLUComponent()
		check(solver.Initialize(c))
		check(solver.SetStartRow(layout.Start))
		check(solver.SetLocalRows(layout.LocalN))
		check(solver.SetGlobalCols(problem.N()))
		check(solver.Set("ordering", "mmd"))
		check(solver.SetupMatrix(localA.Vals, localA.RowPtr, localA.ColInd,
			core.CSR, len(localA.RowPtr), localA.NNZ()))

		x := make([]float64, layout.LocalN)
		status := make([]float64, core.StatusLen)

		// (b)+(c): several right-hand sides, one factorization.
		for k := 0; k < 3; k++ {
			b := make([]float64, layout.LocalN)
			for i := range b {
				b[i] = b0[i] * float64(k+1)
			}
			check(solver.SetupRHS(b, layout.LocalN, 1))
			c.Barrier()
			start := time.Now()
			check(solver.Solve(x, status, layout.LocalN, core.StatusLen))
			c.Barrier()
			if c.Rank() == 0 {
				fmt.Fprintf(w, "rhs %d: %7.4fs  factorizations so far: %d\n",
					k+1, time.Since(start).Seconds(), int(status[core.StatusFactorizations]))
			}
		}

		// A single call can also carry several RHS at once (§5.2c).
		const nRhs = 2
		multi := make([]float64, layout.LocalN*nRhs)
		copy(multi[:layout.LocalN], b0)
		copy(multi[layout.LocalN:], b0)
		check(solver.SetupRHS(multi, layout.LocalN, nRhs))
		sols := make([]float64, layout.LocalN*nRhs)
		check(solver.Solve(sols, status, layout.LocalN, core.StatusLen))
		if c.Rank() == 0 {
			fmt.Fprintf(w, "block of %d rhs: factorizations still %d\n",
				nRhs, int(status[core.StatusFactorizations]))
		}

		// (d): new values, same pattern — one more factorization.
		scaled := localA.Clone()
		for i := range scaled.Vals {
			scaled.Vals[i] *= 2
		}
		check(solver.SetupMatrix(scaled.Vals, scaled.RowPtr, scaled.ColInd,
			core.CSR, len(scaled.RowPtr), scaled.NNZ()))
		check(solver.SetupRHS(b0, layout.LocalN, 1))
		check(solver.Solve(x, status, layout.LocalN, core.StatusLen))
		if c.Rank() == 0 {
			fmt.Fprintf(w, "after matrix update: factorizations = %d (refactored once)\n",
				int(status[core.StatusFactorizations]))
		}
	})
}

func check(code int) {
	must(core.Check(code))
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
