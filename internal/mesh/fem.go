package mesh

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/pmat"
	"repro/internal/sparse"
)

// FEMProblem is a deterministic 3D unstructured-FEM workload: the
// Poisson equation −∇²u = 1 on the unit cube with homogeneous
// Dirichlet boundaries, discretized with linear tetrahedra. The cube
// is meshed as an Nx×Ny×Nz hex grid, each hex split into six
// tetrahedra (the Kuhn triangulation, consistent across shared
// faces), and every interior node is displaced by a seed-driven
// jitter — so the operator has genuine unstructured-FEM value
// distribution and bandwidth, unlike the paper's constant-stencil
// model problem, while remaining exactly reproducible from (dims,
// seed, jitter).
//
// Assembly is distributed by block rows through the same
// PartitionRows split as the 2D generator: each rank assembles only
// the rows of its owned nodes by visiting their incident elements.
// For a given row the element visit order is fixed regardless of the
// partition, so the assembled local blocks are bitwise identical
// across processor counts — the property the golden conformance
// suite pins.
type FEMProblem struct {
	// Nx, Ny, Nz are cell counts per axis; unknowns are the
	// (Nx−1)(Ny−1)(Nz−1) interior nodes. Each must be ≥ 2.
	Nx, Ny, Nz int
	// Seed drives the node jitter hash.
	Seed int64
	// Jitter is the displacement amplitude as a fraction of the local
	// cell size, in [0, maxFEMJitter]. 0 gives the structured mesh.
	Jitter float64
}

// maxFEMJitter keeps every tetrahedron positively oriented: nodes move
// at most Jitter/2 of a cell size per axis, so opposite perturbations
// cannot flatten an element before the validity check would fire.
const maxFEMJitter = 0.45

// DefaultFEMProblem returns the canonical corpus instance: an n×n×n
// cube with 20% jitter.
func DefaultFEMProblem(n int, seed int64) FEMProblem {
	return FEMProblem{Nx: n, Ny: n, Nz: n, Seed: seed, Jitter: 0.2}
}

func (p FEMProblem) validate() error {
	if p.Nx < 2 || p.Ny < 2 || p.Nz < 2 {
		return fmt.Errorf("mesh: FEMProblem needs at least 2 cells per axis, got %dx%dx%d", p.Nx, p.Ny, p.Nz)
	}
	if p.Jitter < 0 || p.Jitter > maxFEMJitter {
		return fmt.Errorf("mesh: FEMProblem jitter %g outside [0, %g]", p.Jitter, maxFEMJitter)
	}
	return nil
}

// N returns the matrix order (number of interior mesh nodes).
func (p FEMProblem) N() int { return (p.Nx - 1) * (p.Ny - 1) * (p.Nz - 1) }

// nodeID returns the global id of grid node (ix,iy,iz) over the full
// (Nx+1)×(Ny+1)×(Nz+1) node lattice, boundary included.
func (p FEMProblem) nodeID(ix, iy, iz int) int {
	return (iz*(p.Ny+1)+iy)*(p.Nx+1) + ix
}

// interior reports whether grid node (ix,iy,iz) is an unknown, and its
// row index if so (row-major over interior nodes).
func (p FEMProblem) interior(ix, iy, iz int) (int, bool) {
	if ix < 1 || ix >= p.Nx || iy < 1 || iy >= p.Ny || iz < 1 || iz >= p.Nz {
		return -1, false
	}
	return ((iz-1)*(p.Ny-1)+(iy-1))*(p.Nx-1) + (ix - 1), true
}

// splitmix64 is the jitter hash: a full-avalanche mix so neighboring
// nodes get uncorrelated displacements from one seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unitHash maps a hash to [0,1) with full 53-bit float precision.
func unitHash(x uint64) float64 { return float64(splitmix64(x)>>11) / (1 << 53) }

// nodeCoords returns the jittered coordinates of grid node (ix,iy,iz).
// Boundary nodes stay exactly on the unit cube; interior nodes move by
// at most ±Jitter/2 of the cell size per axis.
func (p FEMProblem) nodeCoords(ix, iy, iz int) [3]float64 {
	hx := 1.0 / float64(p.Nx)
	hy := 1.0 / float64(p.Ny)
	hz := 1.0 / float64(p.Nz)
	c := [3]float64{float64(ix) * hx, float64(iy) * hy, float64(iz) * hz}
	if _, ok := p.interior(ix, iy, iz); !ok {
		return c
	}
	id := uint64(p.nodeID(ix, iy, iz))
	seed := uint64(p.Seed)
	h := [3]float64{hx, hy, hz}
	for axis := 0; axis < 3; axis++ {
		u := unitHash(seed ^ splitmix64(id*3+uint64(axis)))
		c[axis] += (u - 0.5) * p.Jitter * h[axis]
	}
	return c
}

// kuhnTets lists the six tetrahedra of the Kuhn split of a hex cell.
// Hex corners are bit-coded (bit0=x, bit1=y, bit2=z); every tet shares
// the main diagonal 0–7, one tet per permutation of the three axis
// steps. Splitting every cell identically makes the triangulation
// conforming across shared faces.
var kuhnTets = [6][4]int{
	{0, 1, 3, 7}, // x, y, z
	{0, 1, 5, 7}, // x, z, y
	{0, 2, 3, 7}, // y, x, z
	{0, 2, 6, 7}, // y, z, x
	{0, 4, 5, 7}, // z, x, y
	{0, 4, 6, 7}, // z, y, x
}

// tetElement holds one tetrahedron's stiffness contribution.
type tetElement struct {
	nodes [4]int    // global grid node ids
	grid  [4][3]int // grid coordinates of each vertex
	ke    [4][4]float64
	load  float64 // per-vertex load: vol/4 · f with f ≡ 1
}

// assembleTet computes the linear-tet stiffness Ke[a][b] = vol·∇λa·∇λb
// from the jittered vertex coordinates. A non-positive volume means
// the jitter collapsed an element, which validate()'s amplitude bound
// is meant to preclude — it is reported as an error, never silently
// skipped.
func (p FEMProblem) assembleTet(verts [4][3]int) (tetElement, error) {
	var el tetElement
	var x [4][3]float64
	for a := 0; a < 4; a++ {
		el.grid[a] = verts[a]
		el.nodes[a] = p.nodeID(verts[a][0], verts[a][1], verts[a][2])
		x[a] = p.nodeCoords(verts[a][0], verts[a][1], verts[a][2])
	}
	// Edge matrix E columns are p1−p0, p2−p0, p3−p0.
	var e [3][3]float64
	for c := 0; c < 3; c++ {
		for r := 0; r < 3; r++ {
			e[r][c] = x[c+1][r] - x[0][r]
		}
	}
	det := e[0][0]*(e[1][1]*e[2][2]-e[1][2]*e[2][1]) -
		e[0][1]*(e[1][0]*e[2][2]-e[1][2]*e[2][0]) +
		e[0][2]*(e[1][0]*e[2][1]-e[1][1]*e[2][0])
	vol := math.Abs(det) / 6
	if !(vol > 0) {
		return el, fmt.Errorf("mesh: FEM element %v degenerated (volume %g); reduce Jitter", verts, vol)
	}
	// Barycentric gradients: rows of E⁻¹ are ∇λ1..∇λ3; ∇λ0 closes the
	// partition of unity.
	inv := 1 / det
	var g [4][3]float64
	g[1] = [3]float64{
		(e[1][1]*e[2][2] - e[1][2]*e[2][1]) * inv,
		(e[0][2]*e[2][1] - e[0][1]*e[2][2]) * inv,
		(e[0][1]*e[1][2] - e[0][2]*e[1][1]) * inv,
	}
	g[2] = [3]float64{
		(e[1][2]*e[2][0] - e[1][0]*e[2][2]) * inv,
		(e[0][0]*e[2][2] - e[0][2]*e[2][0]) * inv,
		(e[0][2]*e[1][0] - e[0][0]*e[1][2]) * inv,
	}
	g[3] = [3]float64{
		(e[1][0]*e[2][1] - e[1][1]*e[2][0]) * inv,
		(e[0][1]*e[2][0] - e[0][0]*e[2][1]) * inv,
		(e[0][0]*e[1][1] - e[0][1]*e[1][0]) * inv,
	}
	for k := 0; k < 3; k++ {
		g[0][k] = -(g[1][k] + g[2][k] + g[3][k])
	}
	for a := 0; a < 4; a++ {
		for b := 0; b < 4; b++ {
			el.ke[a][b] = vol * (g[a][0]*g[b][0] + g[a][1]*g[b][1] + g[a][2]*g[b][2])
		}
	}
	el.load = vol / 4
	return el, nil
}

// GenerateRows assembles rows [r0, r1) of the stiffness matrix and
// load vector. The returned CSR has r1−r0 rows and N global columns.
// For each owned node the incident cells (up to 8) and their six tets
// are visited in a fixed order independent of (r0, r1), so the same
// row assembles bitwise identically under any partition.
func (p FEMProblem) GenerateRows(r0, r1 int) (*sparse.CSR, []float64, error) {
	if err := p.validate(); err != nil {
		return nil, nil, err
	}
	n := p.N()
	if r0 < 0 || r1 < r0 || r1 > n {
		return nil, nil, fmt.Errorf("mesh: row range [%d,%d) outside [0,%d)", r0, r1, n)
	}
	rows := r1 - r0
	rp := make([]int, rows+1)
	ci := make([]int, 0, femRowMax*rows)
	v := make([]float64, 0, femRowMax*rows)
	b := make([]float64, rows)
	acc := &rowAccumulator{cols: make([]int, 0, femRowMax), vals: make([]float64, 0, femRowMax)}
	for r := r0; r < r1; r++ {
		// Invert the interior row-major index.
		ix := r%(p.Nx-1) + 1
		iy := (r/(p.Nx-1))%(p.Ny-1) + 1
		iz := r/((p.Nx-1)*(p.Ny-1)) + 1
		lr := r - r0
		acc.reset()
		// The 8 cells incident to the node, lexicographic (z,y,x).
		for dz := -1; dz <= 0; dz++ {
			for dy := -1; dy <= 0; dy++ {
				for dx := -1; dx <= 0; dx++ {
					cx, cy, cz := ix+dx, iy+dy, iz+dz
					if cx < 0 || cx >= p.Nx || cy < 0 || cy >= p.Ny || cz < 0 || cz >= p.Nz {
						continue
					}
					if err := p.assembleCellRow(acc, b, lr, ix, iy, iz, cx, cy, cz); err != nil {
						return nil, nil, err
					}
				}
			}
		}
		ci = append(ci, acc.cols...)
		v = append(v, acc.vals...)
		rp[lr+1] = len(ci)
	}
	return &sparse.CSR{Rows: rows, Cols: n, RowPtr: rp, ColInd: ci, Vals: v}, b, nil
}

// femRowMax bounds a row's entries: the Kuhn split links a node to the
// 14 lattice neighbours whose offset has every component in {0, 1} or
// every component in {0, −1}, and to itself.
const femRowMax = 15

// rowAccumulator sums one row's element contributions per column and
// keeps the row sorted by column. Summing here — rather than emitting
// raw duplicates for a normaliser to merge — fixes the addition order of
// each (i,j) to the element visit order, which is identical to (j,i)'s
// because shared cells enumerate in the same lexicographic order from
// either endpoint. That makes the assembled operator bitwise symmetric,
// not just symmetric up to rounding.
type rowAccumulator struct {
	cols []int
	vals []float64
}

func (a *rowAccumulator) reset() {
	a.cols = a.cols[:0]
	a.vals = a.vals[:0]
}

func (a *rowAccumulator) add(col int, v float64) {
	// A row has at most femRowMax entries; a linear scan finds the
	// column's place.
	k := 0
	for k < len(a.cols) && a.cols[k] < col {
		k++
	}
	if k < len(a.cols) && a.cols[k] == col {
		a.vals[k] += v
		return
	}
	a.cols = slices.Insert(a.cols, k, col)
	a.vals = slices.Insert(a.vals, k, v)
}

// assembleCellRow adds cell (cx,cy,cz)'s contributions to the row of
// owned node (ix,iy,iz).
func (p FEMProblem) assembleCellRow(acc *rowAccumulator, b []float64, lr, ix, iy, iz, cx, cy, cz int) error {
	node := p.nodeID(ix, iy, iz)
	var corners [8][3]int
	for c := 0; c < 8; c++ {
		corners[c] = [3]int{cx + c&1, cy + c>>1&1, cz + c>>2&1}
	}
	for _, tet := range kuhnTets {
		var verts [4][3]int
		owned := -1
		for a := 0; a < 4; a++ {
			verts[a] = corners[tet[a]]
			if p.nodeID(verts[a][0], verts[a][1], verts[a][2]) == node {
				owned = a
			}
		}
		if owned < 0 {
			continue
		}
		el, err := p.assembleTet(verts)
		if err != nil {
			return err
		}
		b[lr] += el.load
		for bb := 0; bb < 4; bb++ {
			col, ok := p.interior(el.grid[bb][0], el.grid[bb][1], el.grid[bb][2])
			if !ok {
				continue // Dirichlet node: u = 0, no lift term
			}
			acc.add(col, el.ke[owned][bb])
		}
	}
	return nil
}

// GenerateLocal builds this rank's conformal block rows for the given
// layout.
func (p FEMProblem) GenerateLocal(l *pmat.Layout) (*sparse.CSR, []float64, error) {
	if l.N != p.N() {
		return nil, nil, fmt.Errorf("mesh: layout covers %d rows, FEM problem has %d", l.N, p.N())
	}
	return p.GenerateRows(l.Start, l.Start+l.LocalN)
}

// GenerateGlobal builds the whole system on one rank (for tests,
// corpus fixtures and serial baselines).
func (p FEMProblem) GenerateGlobal() (*sparse.CSR, []float64, error) {
	return p.GenerateRows(0, p.N())
}
