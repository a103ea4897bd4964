// lisi-demo is the paper's Figure 4 demonstration binary: a driver
// component connected through the LISI SparseSolver port to a selectable
// solver component, with optional run-time swapping across all of them.
//
//	lisi-demo -procs 4 -grid 100 -solver petsc
//	lisi-demo -procs 8 -grid 63 -solver all     # swap through every component
//	lisi-demo -script assembly.cca              # Ccaffeine-style script wiring
//	lisi-demo -backends                         # print the registered backend table
//
// Solver names come from the core backend registry (`-solver` accepts
// any registered name, or "all"). A script must instantiate a "driver"
// (class lisi.driver) and connect its "solver" uses port to some solver
// component's SparseSolver port.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/cca"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/mesh"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, solves, reports to stdout
// and diagnostics to stderr, and returns the exit status: 0 solved, 1
// failed, 2 bad flags or an unusable -solver/-grid pair.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lisi-demo", flag.ContinueOnError)
	fs.SetOutput(stderr)
	procs := fs.Int("procs", 4, "simulated processor count")
	grid := fs.Int("grid", 100, "grid size n (problem has n^2 unknowns)")
	solver := fs.String("solver", "all",
		fmt.Sprintf("one of %s, or all", strings.Join(core.Names(), ", ")))
	tol := fs.Float64("tol", 1e-8, "iterative tolerance")
	script := fs.String("script", "", "assemble components from a Ccaffeine-style script instead of -solver")
	backends := fs.Bool("backends", false, "print the registered backend table (Markdown) and exit")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "lisi-demo:", err)
		return 1
	}

	if *backends {
		fmt.Fprint(stdout, core.BackendTableMarkdown())
		return 0
	}
	if *script != "" {
		if err := runScripted(*script, *procs, *grid, *tol, stdout); err != nil {
			return fail(err)
		}
		return 0
	}

	var names []string
	if *solver == "all" {
		for _, n := range core.Names() {
			if n == "mg" && *grid%2 == 0 {
				continue // mg needs an odd model grid
			}
			names = append(names, n)
		}
	} else if _, ok := core.Lookup(*solver); ok {
		names = []string{*solver}
	} else {
		fmt.Fprintf(stderr, "unknown solver %q (registered: %s)\n",
			*solver, strings.Join(core.Names(), ", "))
		return 2
	}
	if contains(names, "mg") && *grid%2 == 0 {
		fmt.Fprintln(stderr, "the mg component needs an odd grid (ideally 2^k-1)")
		return 2
	}

	problem := mesh.PaperProblem(*grid)
	world, err := comm.NewWorld(*procs)
	if err != nil {
		return fail(err)
	}
	// A rank that cannot go on poisons the world with its error: every
	// other rank unblocks, and Run returns the error (exit 1).
	err = world.Run(func(c *comm.Comm) {
		if err := solveEach(c, problem, names, *grid, *procs, *tol, stdout); err != nil {
			world.AbortCause(err)
		}
	})
	if err != nil {
		return fail(err)
	}
	return 0
}

// solveEach is one rank's demo: it wires the driver to each named solver
// component in turn and solves the model problem through the port.
func solveEach(c *comm.Comm, problem mesh.Problem, names []string, grid, procs int, tol float64, stdout io.Writer) error {
	fw := cca.NewFramework(c)
	if err := fw.CreateInstance("driver", core.ClassDriver); err != nil {
		return err
	}
	for _, n := range names {
		info, _ := core.Lookup(n)
		if err := fw.CreateInstance(n, info.Class); err != nil {
			return err
		}
	}
	comp, err := fw.Instance("driver")
	if err != nil {
		return err
	}
	driver := comp.(*core.DriverComponent)
	if c.Rank() == 0 {
		fmt.Fprintf(stdout, "LISI demo: %dx%d grid (N=%d, nnz=%d) on %d ranks\n",
			grid, grid, problem.N(), problem.NNZ(), procs)
		fmt.Fprintf(stdout, "registered solver components: %v\n\n", cca.RegisteredClasses())
	}
	for _, n := range names {
		params := paramsFor(n, grid, tol)
		if err := fw.Connect("driver", "solver", n, core.PortSparseSolver); err != nil {
			return err
		}
		if c.Rank() == 0 {
			fmt.Fprintf(stdout, "wiring: %v\n", fw.Connections())
		}
		c.Barrier()
		start := time.Now()
		res, err := driver.SolveProblem(problem, core.CSR, params)
		c.Barrier()
		if err != nil {
			return err
		}
		if err := fw.Disconnect("driver", "solver"); err != nil {
			return err
		}
		if c.Rank() == 0 {
			fmt.Fprintf(stdout, "%-10s %8.3fs  iterations=%-5d residual=%.2e converged=%v\n\n",
				n, time.Since(start).Seconds(), res.Iterations, res.Residual, res.Converged)
		}
	}
	return nil
}

func paramsFor(name string, grid int, tol float64) map[string]string {
	switch name {
	case "petsc":
		return map[string]string{"solver": "gmres", "preconditioner": "ilu",
			"tol": fmt.Sprint(tol), "maxits": "20000"}
	case "trilinos":
		return map[string]string{"solver": "gmres", "preconditioner": "domdecomp",
			"tol": fmt.Sprint(tol), "maxits": "20000"}
	case "superlu":
		return map[string]string{"ordering": "mmd", "refine_steps": "1"}
	case "mg":
		return map[string]string{"tol": fmt.Sprint(tol)}
	}
	return nil
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// runScripted assembles the components from a script file on every
// rank's framework and drives one solve through whatever the script
// connected.
func runScripted(path string, procs, grid int, tol float64, stdout io.Writer) error {
	text, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	problem := mesh.PaperProblem(grid)
	world, err := comm.NewWorld(procs)
	if err != nil {
		return err
	}
	return world.Run(func(c *comm.Comm) {
		if err := solveScripted(c, string(text), problem, grid, tol, stdout); err != nil {
			world.AbortCause(err)
		}
	})
}

// solveScripted is one rank's scripted run.
func solveScripted(c *comm.Comm, text string, problem mesh.Problem, grid int, tol float64, stdout io.Writer) error {
	fw := cca.NewFramework(c)
	if err := fw.ExecuteScript(strings.NewReader(text)); err != nil {
		return err
	}
	comp, err := fw.Instance("driver")
	if err != nil {
		return fmt.Errorf("script must instantiate a %q component: %v", "driver", err)
	}
	driver, ok := comp.(*core.DriverComponent)
	if !ok {
		return fmt.Errorf("instance %q is not a lisi.driver", "driver")
	}
	if c.Rank() == 0 {
		fmt.Fprintf(stdout, "scripted assembly:\n")
		for _, conn := range fw.Connections() {
			fmt.Fprintf(stdout, "  %s\n", conn)
		}
	}
	c.Barrier()
	start := time.Now()
	res, err := driver.SolveProblem(problem, core.CSR, map[string]string{"tol": fmt.Sprint(tol)})
	c.Barrier()
	if err != nil {
		return err
	}
	if c.Rank() == 0 {
		fmt.Fprintf(stdout, "solved %dx%d grid in %.3fs: iterations=%d residual=%.2e\n",
			grid, grid, time.Since(start).Seconds(), res.Iterations, res.Residual)
	}
	return nil
}
