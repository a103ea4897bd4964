// Autoselect demonstrates the paper's opening motivation: "not every
// solver works on all problems... experiments on finding [the] best
// suitable solver require a plug and play mechanism."
//
// The program runs a sequence of linear systems whose character changes
// (the scenario of §1: a nonlinear PDE solver generating systems with
// widely varying properties), tries every registered LISI solver
// component on a small sampling solve, and commits the winner to the
// full-size system — all through the one SparseSolver port.
//
//	go run ./examples/autoselect
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

// scenario is one system in the evolving sequence.
type scenario struct {
	name       string
	convection float64 // stronger convection changes which solver wins
}

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
	const procs = 3
	const sampleGrid = 31 // small probe systems
	const fullGrid = 63   // the production solve

	candidates := []struct {
		instance string
		class    string
	}{
		{"petsc-role", core.ClassKSPSolver},
		{"trilinos-role", core.ClassAztecSolver},
		{"superlu-role", core.ClassSLUSolver},
		{"multigrid", core.ClassMGSolver},
	}

	scenarios := []scenario{
		{name: "diffusion-dominated", convection: 1},
		{name: "moderate convection", convection: 30},
		{name: "strong convection", convection: 120},
	}

	world, err := comm.NewWorld(procs)
	if err != nil {
		return err
	}
	return world.Run(func(c *comm.Comm) {
		fw := cca.NewFramework(c)
		must(fw.CreateInstance("driver", core.ClassDriver))
		for _, cand := range candidates {
			must(fw.CreateInstance(cand.instance, cand.class))
		}
		comp, err := fw.Instance("driver")
		must(err)
		driver := comp.(*core.DriverComponent)

		solveWith := func(inst string, p mesh.Problem) (time.Duration, *core.Result, error) {
			must(fw.Connect("driver", "solver", inst, core.PortSparseSolver))
			defer fw.Disconnect("driver", "solver")
			c.Barrier()
			start := time.Now()
			res, err := driver.SolveProblem(p, core.CSR, paramsFor(inst))
			c.Barrier()
			return time.Since(start), res, err
		}

		for _, sc := range scenarios {
			probe := mesh.PaperProblem(sampleGrid)
			probe.Convection = sc.convection
			if c.Rank() == 0 {
				fmt.Fprintf(w, "=== %s (convection %g) ===\n", sc.name, sc.convection)
			}
			best, bestTime := -1, time.Duration(0)
			for i, cand := range candidates {
				elapsed, res, err := solveWith(cand.instance, probe)
				status := "ok"
				if err != nil || !res.Converged {
					status = "failed"
				}
				if c.Rank() == 0 {
					fmt.Fprintf(w, "  probe %-14s %8.3fs  %s\n", cand.instance, elapsed.Seconds(), status)
				}
				if status == "ok" && (best < 0 || elapsed < bestTime) {
					best, bestTime = i, elapsed
				}
			}
			// Timing jitter could make ranks disagree about the winner;
			// rank 0 decides and broadcasts its index so the commit solve
			// stays collective.
			winner := candidates[c.BcastInt(0, best)].instance
			full := mesh.PaperProblem(fullGrid)
			full.Convection = sc.convection
			elapsed, res, err := solveWith(winner, full)
			must(err)
			if c.Rank() == 0 {
				fmt.Fprintf(w, "  -> selected %s for the full system: %.3fs, %d iterations, residual %.2e\n\n",
					winner, elapsed.Seconds(), res.Iterations, res.Residual)
			}
		}
	})
}

// paramsFor supplies each component's vocabulary (the probe and full
// solves share them).
func paramsFor(inst string) map[string]string {
	switch inst {
	case "petsc-role":
		return map[string]string{"solver": "bicgstab", "preconditioner": "ilu", "tol": "1e-8", "maxits": "8000"}
	case "trilinos-role":
		return map[string]string{"solver": "gmres", "preconditioner": "domdecomp", "overlap": "1", "tol": "1e-8", "maxits": "8000"}
	case "superlu-role":
		return map[string]string{"ordering": "mmd"}
	case "multigrid":
		return map[string]string{"tol": "1e-8", "cycles": "60"}
	}
	return nil
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}
