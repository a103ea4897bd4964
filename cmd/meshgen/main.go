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
	"log"
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
func writeCorpus(dir string) error {
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
		fmt.Printf("wrote %s: %dx%d %s\n", filepath.Join(dir, fx.name), fx.m.Rows, fx.m.Cols, fx.sym)
	}
	return nil
}

func main() {
	n := flag.Int("n", 200, "grid size (n x n interior points)")
	procs := flag.Int("procs", 8, "number of block-row partitions (one file pair per rank)")
	dir := flag.String("dir", "meshdata", "output directory")
	verify := flag.Bool("verify", false, "read the files back and verify them")
	corpus := flag.String("corpus", "", "regenerate the workload-corpus .mtx fixtures into this directory and exit")
	flag.Parse()

	if *corpus != "" {
		if err := writeCorpus(*corpus); err != nil {
			log.Fatal(err)
		}
		return
	}

	problem := mesh.PaperProblem(*n)
	world, err := comm.NewWorld(*procs)
	if err != nil {
		log.Fatal(err)
	}
	err = world.Run(func(c *comm.Comm) {
		layout, err := pmat.EvenLayout(c, problem.N())
		if err != nil {
			log.Fatal(err)
		}
		a, b, err := problem.GenerateLocal(layout)
		if err != nil {
			log.Fatal(err)
		}
		if err := mesh.WriteLocal(*dir, c.Rank(), a, b); err != nil {
			log.Fatal(err)
		}
		if *verify {
			a2, b2, err := mesh.ReadLocal(*dir, c.Rank())
			if err != nil {
				log.Fatal(err)
			}
			if !a.AlmostEqual(a2, 0) {
				log.Fatalf("rank %d: matrix read-back mismatch", c.Rank())
			}
			for i := range b {
				if b[i] != b2[i] {
					log.Fatalf("rank %d: rhs read-back mismatch at %d", c.Rank(), i)
				}
			}
		}
		// The rank guards above end in log.Fatal, which kills the whole OS
		// process hosting every in-process rank — no rank is left waiting
		// in the collective.
		//lisi:ignore collectivesym log.Fatal aborts the entire in-process world, not one rank
		nnzTotal := c.AllReduceInt(a.NNZ(), comm.OpSum)
		if c.Rank() == 0 {
			fmt.Printf("wrote %d file pairs under %s: N=%d, nnz=%d (rows split %v)\n",
				*procs, *dir, problem.N(), nnzTotal, layout.Starts)
			if *verify {
				fmt.Println("read-back verification passed on every rank")
			}
		}
	})
	if err != nil {
		log.Fatal(err)
	}
}
