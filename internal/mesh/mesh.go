// Package mesh is the parallel mesh-data generator of the paper's test
// architecture (Figure 3, §8[a]): it builds the 5-point centered finite
// difference discretization of the linear PDE
//
//	u_xx + u_yy − 3·u_x = f
//
// on the unit square with Dirichlet boundary conditions, with the paper's
// forcing function f = (2 − 6x − x²)·sin(x). The coefficient matrix A,
// right-hand side b and solution x are partitioned conformally into block
// rows, one block per processor, and each rank generates (and optionally
// writes to a node-local file) only its own rows.
package mesh

import (
	"fmt"
	"math"

	"repro/internal/pmat"
	"repro/internal/sparse"
)

// Problem describes one PDE instance on an Nx×Ny interior grid.
type Problem struct {
	Nx, Ny int
	// F is the forcing function f(x,y).
	F func(x, y float64) float64
	// G gives the Dirichlet boundary values g(x,y).
	G func(x, y float64) float64
	// Convection is the coefficient of −u_x (3 in the paper).
	Convection float64
}

// PaperProblem returns the exact workload of §8[a] on an n×n interior
// grid: f = (2 − 6x − x²)·sin(x), homogeneous Dirichlet boundary.
func PaperProblem(n int) Problem {
	return Problem{
		Nx: n, Ny: n,
		F:          func(x, y float64) float64 { return (2 - 6*x - x*x) * math.Sin(x) },
		G:          func(x, y float64) float64 { return 0 },
		Convection: 3,
	}
}

// ManufacturedProblem returns a variant with the known solution
// u*(x,y) = sin(πx)·sin(πy), for which f = −2π²·u* − 3π·cos(πx)·sin(πy):
// the discrete solution converges to u* as the grid refines, which the
// integration tests use to validate the whole pipeline.
func ManufacturedProblem(n int) (Problem, func(x, y float64) float64) {
	exact := func(x, y float64) float64 { return math.Sin(math.Pi*x) * math.Sin(math.Pi*y) }
	p := Problem{
		Nx: n, Ny: n,
		F: func(x, y float64) float64 {
			return -2*math.Pi*math.Pi*exact(x, y) - 3*math.Pi*math.Cos(math.Pi*x)*math.Sin(math.Pi*y)
		},
		G:          func(x, y float64) float64 { return 0 },
		Convection: 3,
	}
	return p, exact
}

// N returns the matrix order (number of interior grid points).
func (p Problem) N() int { return p.Nx * p.Ny }

// NNZ returns the exact nonzero count of the operator: 5 entries per
// interior point minus the missing neighbors along each edge. For an
// n×n grid this is 5n² − 4n, the formula behind the paper's problem
// sizes (12300, 49600, 199200, 448800, 798400).
func (p Problem) NNZ() int {
	return 5*p.Nx*p.Ny - 2*p.Nx - 2*p.Ny
}

// GridForNNZ returns the square grid size n whose operator has the given
// nonzero count (inverting nnz = 5n² − 4n), erroring when nnz is not
// exactly representable.
func GridForNNZ(nnz int) (int, error) {
	n := int(math.Round((4 + math.Sqrt(float64(16+20*nnz))) / 10))
	if n < 1 || 5*n*n-4*n != nnz {
		return 0, fmt.Errorf("mesh: no square grid has exactly %d nonzeros", nnz)
	}
	return n, nil
}

// index returns the global row of grid point (i,j), row-major over the
// grid so block rows correspond to horizontal strips.
func (p Problem) index(i, j int) int { return j*p.Nx + i }

// coords returns the (x,y) coordinates of interior point (i,j).
func (p Problem) coords(i, j int) (float64, float64) {
	hx := 1.0 / float64(p.Nx+1)
	hy := 1.0 / float64(p.Ny+1)
	return float64(i+1) * hx, float64(j+1) * hy
}

// GenerateRows builds rows [r0, r1) of the operator and right-hand side.
// The returned CSR has r1−r0 rows and N global columns. This is the
// per-rank generator: each processor calls it for its own block row.
func (p Problem) GenerateRows(r0, r1 int) (*sparse.CSR, []float64, error) {
	n := p.N()
	if r0 < 0 || r1 < r0 || r1 > n {
		return nil, nil, fmt.Errorf("mesh: row range [%d,%d) outside [0,%d)", r0, r1, n)
	}
	hx := 1.0 / float64(p.Nx+1)
	hy := 1.0 / float64(p.Ny+1)
	cx := 1 / (hx * hx)
	cy := 1 / (hy * hy)
	cc := p.Convection / (2 * hx)
	// Stencil: east/west include the first-order convection term.
	center := -2*cx - 2*cy
	east := cx - cc
	west := cx + cc

	// Each row is written in ascending column order (south, west,
	// centre, east, north), so the CSR is canonical as it is built.
	// Boundary neighbours lift into b in the order west, east, south,
	// north.
	rows := r1 - r0
	rp := make([]int, rows+1)
	ci := make([]int, 0, 5*rows)
	v := make([]float64, 0, 5*rows)
	b := make([]float64, rows)
	for r := r0; r < r1; r++ {
		i := r % p.Nx
		j := r / p.Nx
		x, y := p.coords(i, j)
		lr := r - r0
		b[lr] = p.F(x, y)
		if i == 0 {
			b[lr] -= west * p.G(0, y)
		}
		if i == p.Nx-1 {
			b[lr] -= east * p.G(1, y)
		}
		if j == 0 {
			b[lr] -= cy * p.G(x, 0)
		}
		if j == p.Ny-1 {
			b[lr] -= cy * p.G(x, 1)
		}
		if j > 0 {
			ci, v = append(ci, p.index(i, j-1)), append(v, cy)
		}
		if i > 0 {
			ci, v = append(ci, p.index(i-1, j)), append(v, west)
		}
		ci, v = append(ci, r), append(v, center)
		if i < p.Nx-1 {
			ci, v = append(ci, p.index(i+1, j)), append(v, east)
		}
		if j < p.Ny-1 {
			ci, v = append(ci, p.index(i, j+1)), append(v, cy)
		}
		rp[lr+1] = len(ci)
	}
	return &sparse.CSR{Rows: rows, Cols: n, RowPtr: rp, ColInd: ci, Vals: v}, b, nil
}

// GenerateLocal builds this rank's conformal block rows for the given
// layout.
func (p Problem) GenerateLocal(l *pmat.Layout) (*sparse.CSR, []float64, error) {
	if l.N != p.N() {
		return nil, nil, fmt.Errorf("mesh: layout covers %d rows, problem has %d", l.N, p.N())
	}
	return p.GenerateRows(l.Start, l.Start+l.LocalN)
}

// GenerateGlobal builds the whole system on one rank (for tests and
// serial baselines).
func (p Problem) GenerateGlobal() (*sparse.CSR, []float64, error) {
	return p.GenerateRows(0, p.N())
}

// ExactGridValues samples a function at this layout's grid points in row
// order (used to compare a solve against a manufactured solution).
func (p Problem) ExactGridValues(l *pmat.Layout, u func(x, y float64) float64) []float64 {
	out := make([]float64, l.LocalN)
	for lr := 0; lr < l.LocalN; lr++ {
		r := l.Start + lr
		x, y := p.coords(r%p.Nx, r/p.Nx)
		out[lr] = u(x, y)
	}
	return out
}
