// Quickstart: solve one sparse linear system through the LISI
// SparseSolver interface on 2 simulated processors.
//
//	go run ./examples/quickstart
//
// The program assembles the paper's 5-point PDE operator on a 32×32
// grid, feeds each rank's block rows through the interface in CSR form,
// solves with the PETSc-role component (GMRES + ILU), and checks the
// residual.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

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
	const gridN = 32
	problem := mesh.PaperProblem(gridN)

	world, err := comm.NewWorld(procs)
	if err != nil {
		return err
	}
	return world.Run(func(c *comm.Comm) {
		// 1. Each rank generates its block rows of A and b (Figure 3).
		layout, err := pmat.EvenLayout(c, problem.N())
		must(err)
		localA, localB, err := problem.GenerateLocal(layout)
		must(err)

		// 2. Create a solver component and describe the distribution
		//    through the LISI setters (§6.3).
		solver := core.NewKSPComponent()
		check(solver.Initialize(c))
		check(solver.SetStartRow(layout.Start))
		check(solver.SetLocalRows(layout.LocalN))
		check(solver.SetLocalNNZ(localA.NNZ()))
		check(solver.SetGlobalCols(problem.N()))

		// 3. Transfer the assembled system (setupMatrix / setupRHS).
		check(solver.SetupMatrix(localA.Vals, localA.RowPtr, localA.ColInd,
			core.CSR, len(localA.RowPtr), localA.NNZ()))
		check(solver.SetupRHS(localB, layout.LocalN, 1))

		// 4. Generic parameters (§6.5) — the same calls work for any
		//    LISI component.
		check(solver.Set("solver", "gmres"))
		check(solver.Set("preconditioner", "ilu"))
		check(solver.SetDouble("tol", 1e-8))

		// 5. Solve and inspect the status vector.
		x := make([]float64, layout.LocalN)
		status := make([]float64, core.StatusLen)
		check(solver.Solve(x, status, layout.LocalN, core.StatusLen))

		// 6. Verify: global residual of the distributed solution.
		m, err := pmat.NewMat(layout, localA)
		must(err)
		res := m.Residual(localB, x)
		if c.Rank() == 0 {
			fmt.Fprintf(w, "grid %dx%d (N=%d, nnz=%d) on %d ranks\n",
				gridN, gridN, problem.N(), problem.NNZ(), procs)
			fmt.Fprintf(w, "converged in %d iterations, residual %.3e (reported %.3e)\n",
				int(status[core.StatusIterations]), res, status[core.StatusResidual])
			fmt.Fprintf(w, "solver configuration:\n%s", solver.GetAll())
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
