package par_test

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/par"
	"repro/internal/sparse"
)

// coverTask records which slot processed each unit.
type coverTask struct {
	slotOf []int
}

func (t *coverTask) Range(slot, lo, hi int) {
	for i := lo; i < hi; i++ {
		t.slotOf[i] = slot
	}
}

func TestRunCoversAllUnitsOnce(t *testing.T) {
	for _, w := range []int{1, 2, 3, 4, 7} {
		p := par.New(w)
		for _, n := range []int{0, 1, 3, 4, 5, 16, 17, 100} {
			ct := &coverTask{slotOf: make([]int, n)}
			for i := range ct.slotOf {
				ct.slotOf[i] = -1
			}
			p.Run(n, ct)
			prev := 0
			for i, s := range ct.slotOf {
				if s < 0 {
					t.Fatalf("w=%d n=%d: unit %d not processed", w, n, i)
				}
				if s < prev {
					t.Fatalf("w=%d n=%d: unit %d in slot %d after slot %d (partition not contiguous)", w, n, i, s, prev)
				}
				prev = s
			}
		}
		p.Close()
	}
}

func TestRunNilPoolInline(t *testing.T) {
	var p *par.Pool
	ct := &coverTask{slotOf: make([]int, 10)}
	p.Run(10, ct)
	for i, s := range ct.slotOf {
		if s != 0 {
			t.Fatalf("nil pool: unit %d ran in slot %d", i, s)
		}
	}
	if p.Workers() != 1 || p.Parallel() {
		t.Fatalf("nil pool: Workers=%d Parallel=%v", p.Workers(), p.Parallel())
	}
	p.Close() // must not panic
}

type panicTask struct{}

func (panicTask) Range(slot, lo, hi int) {
	if slot == 1 {
		panic("slot 1 boom")
	}
}

func TestRunPropagatesWorkerPanic(t *testing.T) {
	p := par.New(4)
	defer p.Close()
	defer func() {
		if r := recover(); r != "slot 1 boom" {
			t.Fatalf("recovered %v, want slot 1 boom", r)
		}
	}()
	p.Run(100, panicTask{})
}

func TestRunUsableAfterPanic(t *testing.T) {
	p := par.New(4)
	defer p.Close()
	func() {
		defer func() { recover() }()
		p.Run(100, panicTask{})
	}()
	ct := &coverTask{slotOf: make([]int, 50)}
	p.Run(50, ct)
	for i, s := range ct.slotOf {
		if s < 0 {
			t.Fatalf("unit %d not processed after panic recovery", i)
		}
	}
}

func TestCloseReleasesWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	pools := make([]*par.Pool, 8)
	for i := range pools {
		pools[i] = par.New(4)
	}
	for _, p := range pools {
		p.Run(1000, &coverTask{slotOf: make([]int, 1000)})
		p.Close()
		p.Close() // idempotent
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > before {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutines leaked: %d before, %d after Close", before, now)
	}
}

// TestReductionsBitwiseAcrossWorkers is the core determinism contract:
// Dot and Norm2 produce identical bits for every worker count, on
// vector lengths spanning one slot, slot boundaries, and many slots —
// and Dot's slots fold in ascending order, checked against a serial
// fold written here.
func TestReductionsBitwiseAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{0, 1, 7, 2047, 2048, 2049, 4096, 10000} {
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		ref := par.New(1)
		refDot := ref.Dot(a, b)
		refNorm := ref.Norm2(a)
		ref.Close()
		for _, w := range []int{2, 4, 7} {
			p := par.New(w)
			if d := p.Dot(a, b); math.Float64bits(d) != math.Float64bits(refDot) {
				t.Errorf("n=%d w=%d: Dot=%x want %x", n, w, math.Float64bits(d), math.Float64bits(refDot))
			}
			if nm := p.Norm2(a); math.Float64bits(nm) != math.Float64bits(refNorm) {
				t.Errorf("n=%d w=%d: Norm2=%x want %x", n, w, math.Float64bits(nm), math.Float64bits(refNorm))
			}
			p.Close()
		}
	}

	// 64 slots whose partials span 1e-20 to 1e20 in magnitude, either
	// sign, between a 1e30 and a -1e30 that cancel: only the ascending
	// fold gives these bits, so a slot fold in any other order (or one
	// that loses an update to a race) fails here without -race too. A
	// fold left to the scheduler often does run in ascending order, so
	// each pool folds 50 times.
	const slots, block = 64, 2048
	n := slots * block
	if got := par.ReduceSlots(n); got != slots {
		t.Fatalf("ReduceSlots(%d) = %d, want %d", n, got, slots)
	}
	a, b := make([]float64, n), make([]float64, n)
	parts := make([]float64, slots)
	for s := range parts {
		parts[s] = math.Copysign(math.Pow10(rng.Intn(41)-20)*(1+rng.Float64()), rng.Float64()-0.5)
	}
	parts[0], parts[slots-1] = 1e30, -1e30
	for i := range b {
		b[i] = 1
	}
	for s, v := range parts {
		a[s*block] = v // the slot's partial is exactly v
	}
	want := parts[0]
	for _, v := range parts[1:] {
		want += v
	}
	for _, w := range []int{1, 2, 4, 7} {
		p := par.New(w)
		for rep := 0; rep < 50; rep++ {
			if d := p.Dot(a, b); math.Float64bits(d) != math.Float64bits(want) {
				t.Errorf("%d slots w=%d, fold %d: Dot=%v, the ascending fold of the slot partials is %v", slots, w, rep, d, want)
				break
			}
		}
		p.Close()
	}
}

// TestReductionsMatchSerialForSingleSlot pins the compatibility edge the
// default path depends on: up to one slot block, pooled reductions are
// bit-identical to the legacy serial kernels for any worker count.
func TestReductionsMatchSerialForSingleSlot(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 100, 2048} {
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
			b[i] = rng.NormFloat64()
		}
		for _, w := range []int{1, 4} {
			p := par.New(w)
			if d, s := p.Dot(a, b), sparse.Dot(a, b); math.Float64bits(d) != math.Float64bits(s) {
				t.Errorf("n=%d w=%d: pooled Dot %x != sparse.Dot %x", n, w, math.Float64bits(d), math.Float64bits(s))
			}
			if d, s := p.Norm2(a), sparse.Norm2(a); math.Float64bits(d) != math.Float64bits(s) {
				t.Errorf("n=%d w=%d: pooled Norm2 %x != sparse.Norm2 %x", n, w, math.Float64bits(d), math.Float64bits(s))
			}
			p.Close()
		}
	}
}

func TestNorm2OverflowGuard(t *testing.T) {
	n := 5000
	x := make([]float64, n)
	for i := range x {
		x[i] = 1e300
	}
	want := 1e300 * math.Sqrt(float64(n))
	for _, w := range []int{1, 4} {
		p := par.New(w)
		got := p.Norm2(x)
		if math.IsInf(got, 0) || math.Abs(got-want)/want > 1e-12 {
			t.Errorf("w=%d: Norm2 overflow guard broken: got %g want %g", w, got, want)
		}
		p.Close()
	}
}

func TestRunSteadyStateAllocs(t *testing.T) {
	p := par.New(4)
	defer p.Close()
	n := 10000
	a := make([]float64, n)
	b := make([]float64, n)
	for i := range a {
		a[i] = float64(i%13) * 0.25
		b[i] = float64(i%7) * 0.5
	}
	ct := &coverTask{slotOf: make([]int, n)}
	// Warm up the partials scratch, then demand zero allocations.
	p.Dot(a, b)
	p.Norm2(a)
	sink := 0.0
	allocs := testing.AllocsPerRun(100, func() {
		p.Run(n, ct)
		sink += p.Dot(a, b)
		sink += p.Norm2(a)
	})
	if allocs != 0 {
		t.Fatalf("steady-state dispatch allocates: %v allocs/op (sink %v)", allocs, sink)
	}
}

func TestLevelsLowerChainAndDiag(t *testing.T) {
	// Rows: 0 and 1 independent; 2 depends on 1; 3 depends on 2 and 0.
	deps := [][]int{nil, nil, {1}, {0, 2}}
	lv := par.LowerLevels(4, func(i int, visit func(int)) {
		for _, j := range deps[i] {
			visit(j)
		}
	})
	wantOrder := []int{0, 1, 2, 3}
	wantPtr := []int{0, 2, 3, 4}
	if len(lv.Order) != 4 || len(lv.Ptr) != 4 {
		t.Fatalf("levels: order %v ptr %v", lv.Order, lv.Ptr)
	}
	for i := range wantOrder {
		if lv.Order[i] != wantOrder[i] {
			t.Fatalf("order %v, want %v", lv.Order, wantOrder)
		}
	}
	for i := range wantPtr {
		if lv.Ptr[i] != wantPtr[i] {
			t.Fatalf("ptr %v, want %v", lv.Ptr, wantPtr)
		}
	}
	// A diagonal (no deps at all) collapses to a single level.
	diag := par.LowerLevels(6, func(int, func(int)) {})
	if diag.NumLevels() != 1 || len(diag.Level(0)) != 6 {
		t.Fatalf("diagonal levels: %v / %v", diag.Ptr, diag.Order)
	}
}

func TestLevelsUpperChain(t *testing.T) {
	// Backward solve: row i depends on i+1 (a full bidiagonal) → n levels,
	// scheduled n-1 first.
	n := 5
	lv := par.UpperLevels(n, func(i int, visit func(int)) {
		visit(i + 1)
	})
	if lv.NumLevels() != n {
		t.Fatalf("want %d levels, got %d (ptr %v)", n, lv.NumLevels(), lv.Ptr)
	}
	for l := 0; l < n; l++ {
		rows := lv.Level(l)
		if len(rows) != 1 || rows[0] != n-1-l {
			t.Fatalf("level %d = %v, want [%d]", l, rows, n-1-l)
		}
	}
}

func TestLevelsIgnoreOutOfDirectionVisits(t *testing.T) {
	// depsOf may pass a row's full pattern; only j < i counts for lower,
	// only j > i for upper.
	lv := par.LowerLevels(3, func(i int, visit func(int)) {
		visit(i) // self
		visit(i + 1)
		visit(-1)
	})
	if lv.NumLevels() != 1 {
		t.Fatalf("lower levels with no true deps: %v", lv.Ptr)
	}
	uv := par.UpperLevels(3, func(i int, visit func(int)) {
		visit(i)
		visit(i - 1)
		visit(99)
	})
	if uv.NumLevels() != 1 {
		t.Fatalf("upper levels with no true deps: %v", uv.Ptr)
	}
}
