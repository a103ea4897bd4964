// meshgen is the parallel mesh data generator of the paper's test
// architecture (Figure 3, §8[a]): each simulated compute node generates
// its block rows of the 5-point finite difference system for
// u_xx + u_yy − 3u_x = f on the unit square and writes them to
// node-local files for faster data input.
//
//	meshgen -n 200 -procs 8 -dir ./meshdata
//	meshgen -n 200 -procs 8 -dir ./meshdata -verify
//
// With -corpus it instead regenerates the checked-in workload-corpus
// Matrix Market fixtures (testdata/corpus) and exits — the executable
// provenance of the golden conformance suite:
//
//	meshgen -corpus testdata/corpus
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/comm"
	"repro/internal/mesh"
	"repro/internal/pmat"
	"repro/internal/sparse"
)

// writeCorpus writes the canonical corpus fixtures. Every generator
// call is deterministic, so rerunning reproduces the checked-in files
// byte for byte.
func writeCorpus(dir string, stdout io.Writer) error {
	fem, _, err := mesh.DefaultFEMProblem(4, 7).GenerateGlobal()
	if err != nil {
		return err
	}
	fixtures := []struct {
		name string
		m    *sparse.CSR
		sym  sparse.MMSymmetry
	}{
		{"lap49_sym.mtx", sparse.Laplace2D(7, 7), sparse.MMSymmetric},
		{"dd40_gen.mtx", sparse.RandomDiagDominant(40, 5, 2026), sparse.MMGeneral},
		{"fem27_sym.mtx", fem, sparse.MMSymmetric},
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, fx := range fixtures {
		f, err := os.Create(filepath.Join(dir, fx.name))
		if err != nil {
			return err
		}
		if err := sparse.WriteMatrixMarket(f, fx.m, fx.sym); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "wrote %s: %dx%d %s\n", filepath.Join(dir, fx.name), fx.m.Rows, fx.m.Cols, fx.sym)
	}
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, writes (and with -verify
// reads back) the files, reports to stdout and diagnostics to stderr, and
// returns the exit status: 0 done, 1 failed, 2 bad flags.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("meshgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	n := fs.Int("n", 200, "grid size (n x n interior points)")
	procs := fs.Int("procs", 8, "number of block-row partitions (one file pair per rank)")
	dir := fs.String("dir", "meshdata", "output directory")
	verify := fs.Bool("verify", false, "read the files back and verify them")
	corpus := fs.String("corpus", "", "regenerate the workload-corpus .mtx fixtures into this directory and exit")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "meshgen:", err)
		return 1
	}

	if *corpus != "" {
		if err := writeCorpus(*corpus, stdout); err != nil {
			return fail(err)
		}
		return 0
	}

	problem := mesh.PaperProblem(*n)
	world, err := comm.NewWorld(*procs)
	if err != nil {
		return fail(err)
	}
	// A rank that cannot go on poisons the world with its error: every
	// other rank unblocks, and Run returns the error (exit 1).
	err = world.Run(func(c *comm.Comm) {
		layout, err := pmat.EvenLayout(c, problem.N())
		if err != nil {
			world.AbortCause(err)
			return
		}
		a, b, err := problem.GenerateLocal(layout)
		if err == nil {
			err = mesh.WriteLocal(*dir, c.Rank(), a, b)
		}
		if err == nil && *verify {
			err = readBack(*dir, c.Rank(), a, b)
		}
		if err != nil {
			world.AbortCause(err)
			return
		}
		nnzTotal := c.AllReduceInt(a.NNZ(), comm.OpSum)
		if c.Rank() == 0 {
			fmt.Fprintf(stdout, "wrote %d file pairs under %s: N=%d, nnz=%d (rows split %v)\n",
				*procs, *dir, problem.N(), nnzTotal, layout.Starts)
			if *verify {
				fmt.Fprintln(stdout, "read-back verification passed on every rank")
			}
		}
	})
	if err != nil {
		return fail(err)
	}
	return 0
}

// readBack reads one rank's file pair and compares it with what was
// written.
func readBack(dir string, rank int, a *sparse.CSR, b []float64) error {
	a2, b2, err := mesh.ReadLocal(dir, rank)
	if err != nil {
		return err
	}
	if !a.AlmostEqual(a2, 0) {
		return fmt.Errorf("rank %d: matrix read-back mismatch", rank)
	}
	if len(b2) != len(b) {
		return fmt.Errorf("rank %d: rhs read back %d entries, wrote %d", rank, len(b2), len(b))
	}
	for i := range b {
		if b[i] != b2[i] {
			return fmt.Errorf("rank %d: rhs read-back mismatch at %d", rank, i)
		}
	}
	return nil
}
