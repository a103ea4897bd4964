package pmat

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/comm"
	"repro/internal/par"
	"repro/internal/sparse"
)

// reducerSizes straddle the pool's 2048-element slot boundary.
var reducerSizes = []int{1, 2047, 2048, 2049, 10_000}

// reduceAll runs the whole Reducer method set on four rank-dependent
// vectors of local length n and returns the eleven results' bits.
func reduceAll(red *Reducer, rank, n int) [11]uint64 {
	a := sparse.RandomVector(n, int64(11+rank))
	b := sparse.RandomVector(n, int64(23+rank))
	c := sparse.RandomVector(n, int64(37+rank))
	d := sparse.RandomVector(n, int64(41+rank))
	var out [11]float64
	out[0] = red.Dot(a, b)
	out[1] = red.Norm2(a)
	out[2], out[3] = red.NormDot(a, b)
	out[4], out[5] = red.Dot2(a, b, c, d)
	out[6], out[7] = red.Norm2x2(a, b)
	out[8], out[9], out[10] = red.Norm2x2Dot(a, b, c, d)
	var bits [11]uint64
	for i, v := range out {
		bits[i] = math.Float64bits(v)
	}
	return bits
}

// TestReducerMatchesUnfused: with no pool every Reducer value — fused
// or not — is bit for bit the unfused pmat.Dot / pmat.Norm2.
func TestReducerMatchesUnfused(t *testing.T) {
	for _, p := range []int{1, 2, 3} {
		for _, n := range reducerSizes {
			run(t, p, func(cm *comm.Comm) {
				r := cm.Rank()
				a := sparse.RandomVector(n, int64(11+r))
				b := sparse.RandomVector(n, int64(23+r))
				c := sparse.RandomVector(n, int64(37+r))
				d := sparse.RandomVector(n, int64(41+r))
				ab, cd := Dot(cm, a, b), Dot(cm, c, d)
				na, nb := Norm2(cm, a), Norm2(cm, b)
				want := [11]float64{ab, na, na, ab, ab, cd, na, nb, na, nb, cd}
				got := reduceAll(NewReducer(cm), r, n)
				for i, w := range want {
					if got[i] != math.Float64bits(w) {
						t.Errorf("ranks=%d n=%d rank %d: result %d = %x, unfused %x",
							p, n, r, i, got[i], math.Float64bits(w))
					}
				}
			})
		}
	}
}

// TestReducerBitwiseAcrossWorkers: the pooled local halves use a slot
// layout that depends on the vector length alone, so every result is
// the same for every worker count.
func TestReducerBitwiseAcrossWorkers(t *testing.T) {
	for _, p := range []int{1, 2, 3} {
		for _, n := range reducerSizes {
			var ref [11]uint64
			for wi, workers := range []int{1, 2, 4, 7} {
				var got [11]uint64
				run(t, p, func(cm *comm.Comm) {
					pool := par.New(workers)
					defer pool.Close()
					red := NewReducer(cm)
					red.SetPool(pool)
					bits := reduceAll(red, cm.Rank(), n)
					if cm.Rank() == 0 {
						got = bits
					}
				})
				if wi == 0 {
					ref = got
				} else if got != ref {
					t.Errorf("ranks=%d n=%d workers=%d: %x, 1 worker gave %x", p, n, workers, got, ref)
				}
			}
		}
	}
}

// TestReducerSteadyStateAllocs: once the pool's slot scratch exists a
// reduction allocates nothing, fused or not.
func TestReducerSteadyStateAllocs(t *testing.T) {
	const runs = 20
	const n = 10_000
	run(t, 2, func(cm *comm.Comm) {
		pool := par.New(2)
		defer pool.Close()
		red := NewReducer(cm)
		red.SetPool(pool)
		a := sparse.RandomVector(n, int64(3+cm.Rank()))
		b := sparse.RandomVector(n, int64(5+cm.Rank()))
		step := func() {
			red.Dot(a, b)
			red.Norm2(a)
			red.NormDot(a, b)
			red.Dot2(a, b, b, a)
			red.Norm2x2(a, b)
			red.Norm2x2Dot(a, b, a, b)
		}
		for i := 0; i < 4; i++ {
			step()
		}
		runtime.GC()
		if cm.Rank() != 0 {
			for i := 0; i < runs+1; i++ {
				step()
			}
			return
		}
		if avg := testing.AllocsPerRun(runs, step); !raceEnabled && avg != 0 {
			t.Errorf("Reducer allocates %.2f allocs/op process-wide, want 0", avg)
		}
	})
}
