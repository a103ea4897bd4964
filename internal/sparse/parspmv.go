package sparse

import "repro/internal/par"

// FormatChoice selects how ParSpMV.Bind picks a kernel. It is a
// programmatic hook for tests and benchmarks, not a user option: the
// zero value applies the format rule.
type FormatChoice int

const (
	ChoiceAuto FormatChoice = iota // the format rule (see ParSpMV.Bind)
	ChoiceCSR                      // CSR kernel: the reference the bitwise tests compare against
)

// ParSpMV is a reusable worker-pool SpMV kernel bound to one sparse
// operand — CSR, order-exact MSR, or SELL-C-σ. The partition unit
// follows the format (rows for CSR/MSR, chunks for SELL) and every
// row's accumulation sequence is unchanged for any worker count, so
// all bindings are bitwise-identical to the serial CSR kernels and
// callers may switch freely between Apply and the serial paths.
//
// Bind at Setup time and call Apply per product: the task struct is the
// persistent par.Task and owns all per-slot scratch, so the dispatch
// path performs no allocation.
type ParSpMV struct {
	csr  *CSR
	msr  *MSR
	sell *SELL

	// msrSplit[i] is the absolute Val/Ind index where row i's diagonal
	// term belongs in ascending-column order, or -1 when the source CSR
	// stored no diagonal entry (see MSROrderedFromCSR).
	msrSplit []int

	add bool
	y   []float64
	x   []float64

	// scratch backs the SELL per-slot accumulators (slots*C lanes),
	// sized at bind time.
	scratch []float64
}

func (t *ParSpMV) reset() {
	t.csr, t.msr, t.sell = nil, nil, nil
	t.msrSplit = nil
	t.scratch = nil
}

// Bind points the kernel at a in the format fc selects (Format reports
// which). ChoiceAuto is the format rule: SELL-C-σ when the block
// stores at least one entry per row on average (NNZ ≥ Rows > 0), CSR
// otherwise. SELL's lane-wise chunks beat the CSR row loop on every
// operator measured (docs/PERFORMANCE.md, "Format rule") except blocks
// of mostly empty rows — a ghost-column block touched by a few
// boundary rows — where there is nothing to fill a chunk with. The
// rule reads only (Rows, NNZ), so the same kernels are bound on every
// run, rank and host; both are bitwise-identical to serial CSR.
// workers sizes the SELL chunk height and per-slot scratch.
func (t *ParSpMV) Bind(a *CSR, add bool, fc FormatChoice, workers int) {
	if fc == ChoiceAuto && a.Rows > 0 && a.NNZ() >= a.Rows {
		t.BindSELL(SELLFromCSR(a, TunedSELLChunk(a.Rows, workers)), add, workers)
		return
	}
	t.BindCSR(a, add)
}

// BindCSR points the kernel at a CSR operand. With add set, Apply
// computes y += A·x (the ghost-column update in pmat.Apply); otherwise
// y = A·x.
func (t *ParSpMV) BindCSR(a *CSR, add bool) {
	t.reset()
	t.csr, t.add = a, add
}

// BindMSROrdered points the kernel at an MSR operand using the
// order-exact kernel: each row accumulates in ascending column order
// with the diagonal merged at split[i], reproducing the serial CSR
// bits. Build the pair with MSROrderedFromCSR.
func (t *ParSpMV) BindMSROrdered(a *MSR, split []int, add bool) {
	t.reset()
	t.msr, t.msrSplit, t.add = a, split, add
}

// BindSELL points the kernel at a SELL-C-σ operand. workers sizes the
// per-slot accumulator scratch (≤ 1 for a serial-only binding).
func (t *ParSpMV) BindSELL(a *SELL, add bool, workers int) {
	t.reset()
	if workers < 1 {
		workers = 1
	}
	t.sell, t.add = a, add
	t.scratch = make([]float64, workers*a.C)
}

// Format reports the bound operand's storage format (FmtCSR when
// nothing is bound yet, matching the zero value's legacy behavior).
func (t *ParSpMV) Format() Format {
	switch {
	case t.sell != nil:
		return FmtSELL
	case t.msr != nil:
		return FmtMSR
	default:
		return FmtCSR
	}
}

// Apply runs the bound product on p's workers (inline when p is nil or
// serial). It matches the corresponding serial kernel's checkDims
// panics bit for bit as well as its arithmetic.
func (t *ParSpMV) Apply(p *par.Pool, y, x []float64) {
	units := 0
	switch {
	case t.csr != nil:
		// Constant operands keep the dimension checks allocation-free
		// (a runtime op+" x" concatenation would cost 2 allocs per
		// Apply and break the steady-state invariant).
		opX, opY := "CSR.MulVec x", "CSR.MulVec y"
		if t.add {
			opX, opY = "CSR.MulVecAdd x", "CSR.MulVecAdd y"
		}
		checkDims(opX, t.csr.Cols, len(x))
		checkDims(opY, t.csr.Rows, len(y))
		units = t.csr.Rows
	case t.msr != nil:
		checkDims("MSR.MulVec x", t.msr.N, len(x))
		checkDims("MSR.MulVec y", t.msr.N, len(y))
		units = t.msr.N
	case t.sell != nil:
		opX, opY := "SELL.MulVec x", "SELL.MulVec y"
		if t.add {
			opX, opY = "SELL.MulVecAdd x", "SELL.MulVecAdd y"
		}
		checkDims(opX, t.sell.Cols, len(x))
		checkDims(opY, t.sell.Rows, len(y))
		units = t.sell.NumChunks()
	default:
		panic("sparse: ParSpMV.Apply before Bind")
	}
	t.y, t.x = y, x
	p.Run(units, t)
	t.y, t.x = nil, nil
}

// Range computes the bound product for partition units [lo, hi) — rows
// or SELL chunks depending on the binding. It is the par.Task hook;
// every unit writes a disjoint slice of y (and of the slot scratch), so
// slots share nothing.
func (t *ParSpMV) Range(slot, lo, hi int) {
	x, y := t.x, t.y
	switch {
	case t.csr != nil:
		a := t.csr
		for i := lo; i < hi; i++ {
			s := 0.0
			for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
				s += a.Vals[k] * x[a.ColInd[k]]
			}
			if t.add {
				y[i] += s
			} else {
				y[i] = s
			}
		}
	case t.msr != nil:
		a := t.msr
		for i := lo; i < hi; i++ {
			s := 0.0
			end := a.Ind[i+1]
			sp := t.msrSplit[i]
			for k := a.Ind[i]; k < end; k++ {
				if k == sp {
					s += a.Val[i] * x[i]
				}
				s += a.Val[k] * x[a.Ind[k]]
			}
			if sp == end {
				s += a.Val[i] * x[i]
			}
			if t.add {
				y[i] += s
			} else {
				y[i] = s
			}
		}
	case t.sell != nil:
		a := t.sell
		acc := t.scratch[slot*a.C : (slot+1)*a.C]
		for ch := lo; ch < hi; ch++ {
			r0, r1 := a.mulChunk(ch, acc, x)
			a.scatterChunk(r0, r1, acc, y, t.add)
		}
	}
}
