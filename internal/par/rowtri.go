package par

// RowTri is a row-major incomplete-LU factor pair ready for the two
// triangular sweeps of z = (L·U)⁻¹·r: L unit lower triangular, U upper
// triangular with its diagonal held apart. Row i's strict-lower entries
// are LCols/LVals[LLo[i]:LHi[i]] and its strict-upper entries
// UCols/UVals[ULo[i]:UHi[i]], so a factor stored combined on one
// pattern (ILU(0): both halves index the same arrays) and one stored as
// two CSRs (ILUT) describe themselves without copying. The arrays stay
// the caller's; a RowTri adds only its level schedules.
//
// One row body serves the serial sweeps (rows in index order) and the
// level schedule (rows of a level, fanned across the pool): a row's
// arithmetic sequence is the same either way, so Solve is
// bitwise-identical for every worker count.
type RowTri struct {
	LLo, LHi []int
	LCols    []int
	LVals    []float64
	ULo, UHi []int
	UCols    []int
	UVals    []float64
	Diag     []float64

	lvlF, lvlB *Levels
	fwd, bwd   triSweep
}

// Schedule builds the level sets of the two sweeps if p can fan out and
// they are not built yet. The factor pattern is immutable, so they are
// Setup-time artifacts; Solve calls Schedule itself, callers may call
// it earlier to keep the cost out of the first solve.
func (t *RowTri) Schedule(p *Pool) {
	if !p.Parallel() || t.lvlF != nil {
		return
	}
	n := len(t.Diag)
	t.lvlF = LowerLevels(n, func(i int, visit func(j int)) {
		for k := t.LLo[i]; k < t.LHi[i]; k++ {
			visit(t.LCols[k])
		}
	})
	t.lvlB = UpperLevels(n, func(i int, visit func(j int)) {
		for k := t.ULo[i]; k < t.UHi[i]; k++ {
			visit(t.UCols[k])
		}
	})
}

// Solve computes z = (L·U)⁻¹·r. z and r may alias: row i is the only
// reader of r[i] and the only writer of z[i]. With a pool that can fan
// out, levels run in dependency order and the rows of a level spread
// across the workers; otherwise the rows run in index order.
func (t *RowTri) Solve(p *Pool, z, r []float64) {
	t.fwd = triSweep{t: t, z: z, r: r}
	t.bwd = triSweep{t: t, z: z, back: true}
	if p.Parallel() {
		t.Schedule(p)
		t.lvlF.Sweep(p, &t.fwd)
		t.lvlB.Sweep(p, &t.bwd)
	} else {
		n := len(t.Diag)
		t.fwd.Range(0, 0, n)
		t.bwd.Range(0, 0, n)
	}
	t.fwd, t.bwd = triSweep{}, triSweep{}
}

// triSweep is one triangular sweep over a set of structurally
// independent rows: rows[lo:hi] of a level, or with rows nil the
// positions lo..hi-1 of the serial order (ascending forward, descending
// backward). Each row accumulates into a local and writes only its own
// z slot.
type triSweep struct {
	t    *RowTri
	z, r []float64
	rows []int
	back bool
}

func (s *triSweep) Range(_, lo, hi int) {
	t, z, rows := s.t, s.z, s.rows
	if s.back {
		diag := t.Diag
		for q := lo; q < hi; q++ {
			i := len(diag) - 1 - q
			if rows != nil {
				i = rows[q]
			}
			a, b := t.ULo[i], t.UHi[i]
			z[i] = gatherSub(z[i], t.UCols[a:b], t.UVals[a:b], z) / diag[i]
		}
		return
	}
	r := s.r
	for q := lo; q < hi; q++ {
		i := q
		if rows != nil {
			i = rows[q]
		}
		a, b := t.LLo[i], t.LHi[i]
		z[i] = gatherSub(r[i], t.LCols[a:b], t.LVals[a:b], z)
	}
}

// SplitAtDiagonal describes the square CSR matrix (rowPtr, cols, vals),
// each row's columns ascending, as a RowTri over its own arrays: L and
// U its strict triangles, Diag a copy of its diagonal. That is the
// matrix GaussSeidel sweeps. It returns the first row whose diagonal is
// absent or zero, or −1.
func SplitAtDiagonal(rowPtr, cols []int, vals []float64) (*RowTri, int) {
	n := len(rowPtr) - 1
	lHi, uLo, diag := make([]int, n), make([]int, n), make([]float64, n)
	for i := 0; i < n; i++ {
		k := rowPtr[i]
		for k < rowPtr[i+1] && cols[k] < i {
			k++
		}
		if k == rowPtr[i+1] || cols[k] != i || vals[k] == 0 {
			return nil, i
		}
		lHi[i], uLo[i], diag[i] = k, k+1, vals[k]
	}
	return &RowTri{
		LLo: rowPtr[:n], LHi: lHi, LCols: cols, LVals: vals,
		ULo: uLo, UHi: rowPtr[1:], UCols: cols, UVals: vals,
		Diag: diag,
	}, -1
}

// GaussSeidel is one Gauss–Seidel sweep of A = L + D + U (as built by
// SplitAtDiagonal) on A·z = r, rows ascending or, with back set,
// descending. Row i is
//
//	z[i] = (r[i] − Σ L[i,j]·z[j] − Σ U[i,j]·z[j]) / Diag[i]
//
// subtracting in storage order, lower half first: for sorted columns
// that is A's row in storage order with the diagonal skipped. The
// quotient is stored as is, so a row whose sum is −0 leaves −0 (the
// relaxed form (1−ω)·z[i] + ω·s/d at ω = 1 would leave +0 there). The
// sweep is serial: each row reads the z[j] the rows before it in the
// sweep just wrote.
func (t *RowTri) GaussSeidel(z, r []float64, back bool) {
	n := len(t.Diag)
	for q := 0; q < n; q++ {
		i := q
		if back {
			i = n - 1 - q
		}
		a, b := t.LLo[i], t.LHi[i]
		s := gatherSub(r[i], t.LCols[a:b], t.LVals[a:b], z)
		a, b = t.ULo[i], t.UHi[i]
		z[i] = gatherSub(s, t.UCols[a:b], t.UVals[a:b], z) / t.Diag[i]
	}
}

// gatherSub returns acc − Σ vals[k]·z[cols[k]], subtracting in storage
// order: the row body of every sweep.
func gatherSub(acc float64, cols []int, vals, z []float64) float64 {
	vals = vals[:len(cols)]
	for k, c := range cols {
		acc -= vals[k] * z[c]
	}
	return acc
}
