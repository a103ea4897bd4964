package aztec

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/sparse"
	"repro/internal/telemetry"
)

// historyCase is one (method, preconditioner, polynomial order, ranks)
// cell of the history table.
type historyCase struct {
	name            string
	solver, precond int
	polyOrd         int
	ranks           int
}

func historyCases() []historyCase {
	solvers := []struct {
		name string
		id   int
	}{{"cg", AZCG}, {"bicgstab", AZBiCGStab}, {"cgs", AZCGS}, {"gmres", AZGMRES}}
	precs := []struct {
		name        string
		id, polyOrd int
	}{{"jacobi", AZJacobi, 1}, {"symgs1", AZSymGS, 1}, {"symgs3", AZSymGS, 3}, {"domdecomp", AZDomDecomp, 1}}
	var cs []historyCase
	for _, s := range solvers {
		for _, p := range precs {
			for _, ranks := range []int{1, 2} {
				cs = append(cs, historyCase{fmt.Sprintf("%s/%s/p%d", s.name, p.name, ranks), s.id, p.id, p.polyOrd, ranks})
			}
		}
	}
	return cs
}

// solveHistory solves the case on Laplace2D(8, 8), GMRES restarting
// every 5 steps, and returns rank 0's iteration count, an FNV-1a hash
// over the bits of every recorded residual norm and of the rank-0
// solution block, and the bits of the final residual norm.
func solveHistory(t *testing.T, hc historyCase) (its int, hash, final uint64) {
	t.Helper()
	global := sparse.Laplace2D(8, 8)
	xstar := sparse.RandomVector(global.Rows, 99)
	bGlobal := make([]float64, global.Rows)
	global.MulVec(bGlobal, xstar)
	run(t, hc.ranks, func(c *comm.Comm) {
		a := buildCrs(c, global)
		l := a.RowMap().Layout()
		s := NewSolver(c)
		s.SetUserMatrix(a)
		s.Options()[AZSolver] = hc.solver
		s.Options()[AZPrecond] = hc.precond
		s.Options()[AZPolyOrd] = hc.polyOrd
		s.Options()[AZKspace] = 5 // every GMRES row restarts
		rec := telemetry.New()
		s.SetRecorder(rec)
		x := make([]float64, l.LocalN)
		if err := s.Iterate(x, bGlobal[l.Start:l.Start+l.LocalN], 2000, 1e-10); err != nil {
			t.Errorf("%s: %v", hc.name, err)
		}
		h := uint64(14695981039346656037)
		mix := func(v float64) {
			b := math.Float64bits(v)
			for sh := 0; sh < 64; sh += 8 {
				h ^= (b >> sh) & 0xff
				h *= 1099511628211
			}
		}
		for _, p := range rec.Snapshot().Residuals {
			mix(p.Residual)
		}
		for _, v := range x {
			mix(v)
		}
		if c.Rank() == 0 {
			its, hash, final = s.NumIters(), h, math.Float64bits(s.Status()[AZr])
		}
	})
	return its, hash, final
}

// TestHistoriesMatchParent pins every (method, preconditioner, ranks)
// cell's residual history and solution bits. The non-GMRES rows were
// recorded before Gauss–Seidel moved onto par.RowTri and GMRES onto
// pmat's shared cycle and must never move; the GMRES rows were
// re-pinned once, when the cycle took ksp's normalisation and Givens
// rotation.
func TestHistoriesMatchParent(t *testing.T) {
	want := map[string]struct {
		its         int
		hash, final uint64
	}{
		"cg/jacobi/p1":          {29, 0xc00638c207eeba63, 0x3e0765bc6b40cfff},
		"cg/jacobi/p2":          {29, 0x9c7d0b1c3c055cf7, 0x3e0765bc6b40c08d},
		"cg/symgs1/p1":          {15, 0x78445d314a86e73a, 0x3df89de323a4dc03},
		"cg/symgs1/p2":          {19, 0x57acbab9293c6610, 0x3df5251801dbf275},
		"cg/symgs3/p1":          {8, 0xa87930412eb15d5b, 0x3dfe55953bbb3c46},
		"cg/symgs3/p2":          {16, 0x184f52353b83f559, 0x3e005c1777623272},
		"cg/domdecomp/p1":       {13, 0x34a5a19eb4edc90b, 0x3e13c948b89cadc3},
		"cg/domdecomp/p2":       {23, 0x57c992be3af3aea0, 0x3e1e80a626b9fd2e},
		"bicgstab/jacobi/p1":    {23, 0xca6a7202f2fdde7c, 0x3df039dd6855054b},
		"bicgstab/jacobi/p2":    {23, 0x560f26239c7db39d, 0x3df039dd69e1526a},
		"bicgstab/symgs1/p1":    {10, 0x42271a4fee240385, 0x3e002d39f4109c8e},
		"bicgstab/symgs1/p2":    {12, 0xe4fa30370c26ef36, 0x3e176b57acdd34a4},
		"bicgstab/symgs3/p1":    {5, 0x7b86ee2689e8af4d, 0x3e0663dc1a01c953},
		"bicgstab/symgs3/p2":    {11, 0xa6480f7fe1b2da1a, 0x3de5aace7d444ad0},
		"bicgstab/domdecomp/p1": {6, 0x488cc17fbeec435e, 0x3e0cd7de7002558b},
		"bicgstab/domdecomp/p2": {10, 0xd799741a3cdad742, 0x3e18400b45de51df},
		"cgs/jacobi/p1":         {21, 0xd779c5dba639e7f3, 0x3e158ce922f447a2},
		"cgs/jacobi/p2":         {21, 0x8b19af4286283dd9, 0x3e158ce9460d2774},
		"cgs/symgs1/p1":         {10, 0x4526c711ffb70a91, 0x3ddbfbffe86bddc3},
		"cgs/symgs1/p2":         {12, 0xb586024e66ba75b4, 0x3e12e1d1e6c9701a},
		"cgs/symgs3/p1":         {5, 0x784b6cff10c94651, 0x3dfbfc39d1271ab4},
		"cgs/symgs3/p2":         {10, 0x8e974f812b5077cb, 0x3e1fe5c6e4a92b81},
		"cgs/domdecomp/p1":      {7, 0x84e144507a796f37, 0x3d884262841c53e4},
		"cgs/domdecomp/p2":      {11, 0x70361a4897586dad, 0x3e083568dd6992f1},
		"gmres/jacobi/p1":       {77, 0x4214f55bcbb2d4f4, 0x3dfbff5f93821961},
		"gmres/jacobi/p2":       {77, 0xca9ea56e3e292148, 0x3dfbff5ee1053469},
		"gmres/symgs1/p1":       {19, 0x364591606bb0576b, 0x3ddd8b83acddc4ad},
		"gmres/symgs1/p2":       {23, 0xa0c47e39c8a4a70b, 0x3dfa2fb8b5afa926},
		"gmres/symgs3/p1":       {10, 0xad1b560337380096, 0x3dea44eccfa923b9},
		"gmres/symgs3/p2":       {25, 0x469efab96fb1a7d2, 0x3deb3658d8bf909e},
		"gmres/domdecomp/p1":    {12, 0x9058b1ab80ea0d23, 0x3ddeef0c3e434502},
		"gmres/domdecomp/p2":    {23, 0x2389d1217e96f338, 0x3deb8cfef2af8a49},
	}
	for _, hc := range historyCases() {
		w, ok := want[hc.name]
		its, hash, final := solveHistory(t, hc)
		if !ok || its != w.its || hash != w.hash || final != w.final {
			t.Errorf("%q: {%d, %#x, %#x}, recorded {%d, %#x, %#x}",
				hc.name, its, hash, final, w.its, w.hash, w.final)
		}
	}
}
