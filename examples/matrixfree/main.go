// Matrixfree demonstrates the paper's §5.5 requirement: the application
// never assembles the coefficient matrix. It provides a MatrixFree port
// (the one application-side provides port of the §5.6c pattern) whose
// MatMult callback applies the 5-point stencil on the fly, and the
// solver component runs a Krylov method against that callback.
//
//	go run ./examples/matrixfree
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/cca"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/mesh"
	"repro/internal/pmat"
)

// stencilApp applies the discretized operator without storing it; the
// callback is where a real application would evaluate its physics. It
// also offers a Jacobi preconditioner through the same port (ID
// distinguishes the two operators, as in the SIDL spec).
type stencilApp struct {
	op      *pmat.Mat // hidden behind the callback; the solver never sees it
	invDiag []float64
}

func (a *stencilApp) MatMult(id core.ID, x, y []float64, length int) int {
	switch id {
	case core.IDMatrix:
		a.op.Apply(y, x)
	case core.IDPreconditioner:
		for i := range y {
			y[i] = x[i] * a.invDiag[i]
		}
	default:
		return core.ErrBadArg
	}
	return core.OK
}

// SetServices lets the application publish its MatrixFree port.
func (a *stencilApp) SetServices(svc cca.Services) error {
	return svc.AddProvidesPort(a, core.PortMatrixFree, core.PortTypeMatrixFree)
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
	const gridN = 40
	problem := mesh.PaperProblem(gridN)

	world, err := comm.NewWorld(procs)
	if err != nil {
		return err
	}
	return world.Run(func(c *comm.Comm) {
		layout, err := pmat.EvenLayout(c, problem.N())
		must(err)
		localA, b, err := problem.GenerateLocal(layout)
		must(err)
		op, err := pmat.NewMat(layout, localA)
		must(err)
		d := op.Diagonal()
		inv := make([]float64, len(d))
		for i := range d {
			inv[i] = 1 / d[i]
		}
		app := &stencilApp{op: op, invDiag: inv}

		// Wire application (provides MatrixFree) to solver (uses it) —
		// Figure 1(c) with the roles the paper chose.
		fw := cca.NewFramework(c)
		cca.RegisterClass("example.stencilApp", func() cca.Component { return app })
		must(fw.CreateInstance("app", "example.stencilApp"))
		must(fw.CreateInstance("solver", core.ClassKSPSolver))
		must(fw.Connect("solver", core.PortMatrixFree, "app", core.PortMatrixFree))

		comp, err := fw.Instance("solver")
		must(err)
		solver := comp.(core.SparseSolver)
		check(solver.SetStartRow(layout.Start))
		check(solver.SetLocalRows(layout.LocalN))
		check(solver.SetGlobalCols(problem.N()))
		// No SetupMatrix call: the operator lives behind the port.
		check(solver.SetupRHS(b, layout.LocalN, 1))
		check(solver.Set("solver", "bicgstab"))
		check(solver.SetBool("matfree_pc", true)) // use the app's preconditioner too
		check(solver.SetDouble("tol", 1e-9))

		x := make([]float64, layout.LocalN)
		status := make([]float64, core.StatusLen)
		check(solver.Solve(x, status, layout.LocalN, core.StatusLen))

		res := op.Residual(b, x)
		if c.Rank() == 0 {
			fmt.Fprintf(w, "matrix-free solve on %d ranks: %d iterations, residual %.3e\n",
				procs, int(status[core.StatusIterations]), res)
			fmt.Fprintln(w, "(no assembled matrix ever crossed the interface)")
		}
	})
}

func must(err error) {
	if err != nil {
		panic(err)
	}
}

func check(code int) {
	must(core.Check(code))
}
