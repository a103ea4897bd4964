package ksp

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/comm"
	"repro/internal/sparse"
	"repro/internal/telemetry"
)

// gmresCase is one (operator, method, preconditioner, ranks) cell of
// the ksp_test.go GMRES/FGMRES cases, plus short-restart variants so
// the restart path is pinned too.
type gmresCase struct {
	name    string
	global  func() *sparse.CSR
	method  string
	pc      string // "" = the variable Richardson PC of the flexible test
	ranks   int
	restart int
	rtol    float64
	maxIts  int
}

func gmresCases() []gmresCase {
	lap8 := func() *sparse.CSR { return sparse.Laplace2D(8, 8) }
	lap6 := func() *sparse.CSR { return sparse.Laplace2D(6, 6) }
	lap7 := func() *sparse.CSR { return sparse.Laplace2D(7, 7) }
	rdd := func() *sparse.CSR { return sparse.RandomDiagDominant(60, 5, 4) }
	var cs []gmresCase
	for _, p := range []int{1, 2, 4} {
		cs = append(cs, gmresCase{fmt.Sprintf("spd/gmres/bjacobi/p%d", p), lap8, TypeGMRES, PCBJacobi, p, 30, 1e-10, 2000})
	}
	for _, pc := range []string{PCNone, PCJacobi, PCBJacobi, PCSOR, PCSSOR, PCILU} {
		cs = append(cs, gmresCase{"pcs/gmres/" + pc + "/p2", lap6, TypeGMRES, pc, 2, 30, 1e-10, 3000})
	}
	cs = append(cs, gmresCase{"unsym/gmres/jacobi/p3", rdd, TypeGMRES, PCJacobi, 3, 30, 1e-11, 2000})
	for _, p := range []int{1, 2} {
		cs = append(cs, gmresCase{fmt.Sprintf("spd/fgmres/jacobi/p%d", p), lap8, TypeFGMRES, PCJacobi, p, 30, 1e-9, 20000})
	}
	cs = append(cs,
		gmresCase{"flexible/fgmres/variable/p1", lap7, TypeFGMRES, "", 1, 30, 1e-10, 5000},
		gmresCase{"restart5/gmres/jacobi/p2", lap8, TypeGMRES, PCJacobi, 2, 5, 1e-10, 2000},
		gmresCase{"restart5/fgmres/jacobi/p2", lap8, TypeFGMRES, PCJacobi, 2, 5, 1e-9, 20000},
		gmresCase{"restart3/fgmres/variable/p1", lap7, TypeFGMRES, "", 1, 3, 1e-10, 5000},
	)
	return cs
}

// gmresHistory is solveHistory for a case that must converge.
func gmresHistory(t *testing.T, gc gmresCase) (its int, hash uint64, final float64) {
	t.Helper()
	its, hash, final, err := solveHistory(t, gc)
	if err != nil {
		t.Errorf("%s: %v", gc.name, err)
	}
	return its, hash, final
}

// solveHistory solves the case (any method, not only GMRES) and returns
// rank 0's iteration count, an FNV-1a hash over the bits of every
// monitored residual norm and of the rank-0 solution block, the final
// residual norm, and rank 0's solve error.
func solveHistory(t *testing.T, gc gmresCase) (its int, hash uint64, final float64, solveErr error) {
	t.Helper()
	global := gc.global()
	n := global.Rows
	xstar := sparse.RandomVector(n, 99)
	bGlobal := make([]float64, n)
	global.MulVec(bGlobal, xstar)
	run(t, gc.ranks, func(c *comm.Comm) {
		a := distMat(c, global)
		k := New(c)
		k.SetOperators(a)
		if err := k.SetType(gc.method); err != nil {
			t.Fatal(err)
		}
		if gc.pc == "" {
			k.SetPC(&variablePC{a: a})
		} else if err := k.SetPCType(gc.pc); err != nil {
			t.Fatal(err)
		}
		if err := k.SetRestart(gc.restart); err != nil {
			t.Fatal(err)
		}
		k.SetTolerances(gc.rtol, 0, 0, gc.maxIts)
		h := uint64(14695981039346656037)
		mix := func(v float64) {
			b := math.Float64bits(v)
			for s := 0; s < 64; s += 8 {
				h ^= (b >> s) & 0xff
				h *= 1099511628211
			}
		}
		rec := telemetry.New()
		k.SetRecorder(rec)
		l := a.Layout()
		x := make([]float64, l.LocalN)
		err := k.Solve(bGlobal[l.Start:l.Start+l.LocalN], x)
		for _, p := range rec.Snapshot().Residuals {
			mix(p.Residual)
		}
		for _, v := range x {
			mix(v)
		}
		if c.Rank() == 0 {
			its, hash, final, solveErr = k.Iterations(), h, k.ResidualNorm(), err
		}
	})
	return its, hash, final, solveErr
}

// TestGMRESHistoriesMatchParent pins the merged GMRES/FGMRES cycle to
// the residual histories and solutions the two separate routines
// produced before the merge, bit for bit. The literals were recorded
// once from commit 3995891 (GMRES and flexible GMRES as two bodies)
// with this same harness.
func TestGMRESHistoriesMatchParent(t *testing.T) {
	want := map[string]struct {
		its   int
		hash  uint64
		final uint64 // bits of the final residual norm
	}{
		"spd/gmres/bjacobi/p1":        {14, 0xdff50e1b35adee44, 0x3dd10f09d4396599},
		"spd/gmres/bjacobi/p2":        {18, 0xa432294a5ff4c125, 0x3dd53b3ea450b8bc},
		"spd/gmres/bjacobi/p4":        {21, 0x22c0ccfd5a941909, 0x3de904b699aa8db5},
		"pcs/gmres/none/p2":           {19, 0x1193eccd015e9fca, 0x3cf49d4cc9d89387},
		"pcs/gmres/jacobi/p2":         {19, 0x20a4b89c7801904c, 0x3cd49d4cc9d89387},
		"pcs/gmres/bjacobi/p2":        {15, 0x29e517d610a6723c, 0x3dea733c2c71cf2d},
		"pcs/gmres/sor/p2":            {19, 0xead239f7b1b89431, 0x3de72359bf71faa3},
		"pcs/gmres/ssor/p2":           {16, 0x4f1f2ce34b6c5f5a, 0x3dcd644cce204b16},
		"pcs/gmres/ilu/p2":            {15, 0x29e517d610a6723c, 0x3dea733c2c71cf2d},
		"unsym/gmres/jacobi/p3":       {20, 0x1b7dc72b4f293ff3, 0x3db8c971468bac3e},
		"spd/fgmres/jacobi/p1":        {27, 0x97ced570fc5412ed, 0x3e51163dc3cb8227},
		"spd/fgmres/jacobi/p2":        {27, 0xd8c0c60f56668d07, 0x3e51163dc3cb812e},
		"flexible/fgmres/variable/p1": {16, 0x23bf09c93c257d06, 0x3e1a27c7d61f4282},
		"restart5/gmres/jacobi/p2":    {77, 0xa0afe50afddc7c5b, 0x3dfbff5eff11a131},
		"restart5/fgmres/jacobi/p2":   {67, 0x647c7e27b1d552ea, 0x3e5133142b343272},
		"restart3/fgmres/variable/p1": {38, 0x486556246df21c18, 0x3e0b878ea9b1632d},
	}
	for _, gc := range gmresCases() {
		w, ok := want[gc.name]
		if !ok {
			t.Errorf("%s: no recorded history", gc.name)
			continue
		}
		its, hash, final := gmresHistory(t, gc)
		if its != w.its || hash != w.hash || math.Float64bits(final) != w.final {
			t.Errorf("%s: got {%d, %#x, %#x}, parent recorded {%d, %#x, %#x}",
				gc.name, its, hash, math.Float64bits(final), w.its, w.hash, w.final)
		}
	}
}

// TestSORHistoriesMatchParent pins cg, bicgstab and gmres under sor and
// ssor through the same harness. The literals were recorded while the
// two preconditioners still ran their own (1−ω)·x + ω·s/d row loops;
// they must not move now that both are par.RowTri.GaussSeidel sweeps.
// CG under the non-symmetric sor runs to maxIts, so that row pins a
// 2000-step divergent history.
func TestSORHistoriesMatchParent(t *testing.T) {
	want := map[string]struct {
		its         int
		hash, final uint64
	}{
		"cg/sor/p2":     {2000, 0x27aefbdac648388c, 0x3fc6d1bd58b96b2c},
		"cg/ssor/p2":    {19, 0x86f86b142808bab9, 0x3df5251801dbf275},
		"bcgs/sor/p2":   {17, 0x17ea51a693cec416, 0x3e1b61fb1480c10a},
		"bcgs/ssor/p2":  {12, 0xf9369586f909207b, 0x3e176b57acdd34a4},
		"gmres/sor/p2":  {24, 0x68a13a17b3d589bc, 0x3dfddbd5596ad864},
		"gmres/ssor/p2": {19, 0x47f85ca2e54e4088, 0x3dd5ca48b0048058},
	}
	lap8 := func() *sparse.CSR { return sparse.Laplace2D(8, 8) }
	for _, method := range []string{TypeCG, TypeBiCGStab, TypeGMRES} {
		for _, pc := range []string{PCSOR, PCSSOR} {
			gc := gmresCase{method + "/" + pc + "/p2", lap8, method, pc, 2, 30, 1e-10, 2000}
			w, ok := want[gc.name]
			its, hash, final, err := solveHistory(t, gc)
			if diverged := method == TypeCG && pc == PCSOR; (err != nil) != diverged {
				t.Errorf("%s: error %v", gc.name, err)
			}
			if !ok || its != w.its || hash != w.hash || math.Float64bits(final) != w.final {
				t.Errorf("%q: {%d, %#x, %#x}, recorded {%d, %#x, %#x}",
					gc.name, its, hash, math.Float64bits(final), w.its, w.hash, w.final)
			}
		}
	}
}

// TestGMRESAgreesWithFGMRESFixedPC: with a preconditioner that does not
// change, left-preconditioned GMRES and flexible GMRES are two routes
// to the same solution.
func TestGMRESAgreesWithFGMRESFixedPC(t *testing.T) {
	global := sparse.Laplace2D(8, 8)
	xstar := sparse.RandomVector(global.Rows, 99)
	bGlobal := make([]float64, global.Rows)
	global.MulVec(bGlobal, xstar)
	for _, p := range []int{1, 2} {
		run(t, p, func(c *comm.Comm) {
			a := distMat(c, global)
			l := a.Layout()
			b := bGlobal[l.Start : l.Start+l.LocalN]
			sols := map[string][]float64{}
			for _, method := range []string{TypeGMRES, TypeFGMRES} {
				k := New(c)
				k.SetOperators(a)
				if err := k.SetType(method); err != nil {
					t.Fatal(err)
				}
				if err := k.SetPCType(PCBJacobi); err != nil {
					t.Fatal(err)
				}
				k.SetTolerances(1e-10, 0, 0, 2000)
				x := make([]float64, l.LocalN)
				if err := k.Solve(b, x); err != nil {
					t.Fatalf("%s on %d ranks: %v", method, p, err)
				}
				sols[method] = x
			}
			for i, g := range sols[TypeGMRES] {
				if d := math.Abs(g - sols[TypeFGMRES][i]); d > 1e-7 {
					t.Fatalf("%d ranks: x[%d] differs by %.3e between gmres and fgmres", p, i, d)
				}
			}
		})
	}
}
