// Solverswap is the paper's Figure 4 demo: one driver component, three
// solver components (PETSc-role, Trilinos-role, SuperLU-role multigrid
// included as a bonus fourth), re-wired at run time through the CCA
// framework — the driver code never changes.
//
//	go run ./examples/solverswap
package main

import (
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/cca"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/mesh"
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
	const procs = 4
	const gridN = 63 // odd so the multigrid component can coarsen
	problem := mesh.PaperProblem(gridN)

	solvers := []struct {
		instance string
		class    string
		params   map[string]string
	}{
		{"petsc-role", core.ClassKSPSolver, map[string]string{
			"solver": "gmres", "preconditioner": "ilu", "tol": "1e-8"}},
		{"trilinos-role", core.ClassAztecSolver, map[string]string{
			"solver": "gmres", "preconditioner": "domdecomp", "tol": "1e-8"}},
		{"superlu-role", core.ClassSLUSolver, map[string]string{
			"ordering": "mmd", "refine_steps": "1"}},
		{"multigrid", core.ClassMGSolver, map[string]string{"tol": "1e-8"}},
	}

	world, err := comm.NewWorld(procs)
	if err != nil {
		return err
	}
	return world.Run(func(c *comm.Comm) {
		fw := cca.NewFramework(c)
		must(fw.CreateInstance("driver", core.ClassDriver))
		for _, s := range solvers {
			must(fw.CreateInstance(s.instance, s.class))
		}
		comp, err := fw.Instance("driver")
		must(err)
		driver := comp.(*core.DriverComponent)

		if c.Rank() == 0 {
			fmt.Fprintf(w, "problem: %dx%d grid, N=%d, nnz=%d, %d ranks\n\n",
				gridN, gridN, problem.N(), problem.NNZ(), procs)
		}
		for _, s := range solvers {
			// Dynamic re-wiring: connect, solve, disconnect (Figure 4 —
			// "only one of three links would show up").
			must(fw.Connect("driver", "solver", s.instance, core.PortSparseSolver))
			c.Barrier()
			start := time.Now()
			res, err := driver.SolveProblem(problem, core.CSR, s.params)
			c.Barrier()
			elapsed := time.Since(start)
			must(err)
			must(fw.Disconnect("driver", "solver"))
			if c.Rank() == 0 {
				fmt.Fprintf(w, "%-14s %8.3fs  iterations=%-5d residual=%.2e  wiring=%v\n",
					s.instance, elapsed.Seconds(), res.Iterations, res.Residual, res.Converged)
			}
		}
	})
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
