package par_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/par"
	"repro/internal/sparse"
)

// fusedLengths straddle the 2048-element slot boundary: empty, one
// slot, exactly one, just over, a ragged last slot, several slots.
var fusedLengths = []int{0, 1, 2047, 2048, 2049, 5000, 3*2048 + 5}

// fusedVector fills a length-n vector from seed, mixing in the entries
// the kernels treat specially when special is set: −0, subnormals,
// 1e300 (the scaled norm's rescaling path) and exact zeros (which the
// norm skips).
func fusedVector(n int, seed int64, special bool) []float64 {
	rng := rand.New(rand.NewSource(seed))
	v := make([]float64, n)
	for i := range v {
		v[i] = 2*rng.Float64() - 1
		if !special {
			continue
		}
		switch rng.Intn(8) {
		case 0:
			v[i] = math.Copysign(0, -1)
		case 1:
			v[i] = 5e-324 * float64(1+rng.Intn(1000))
		case 2:
			v[i] = math.Copysign(1e300, v[i])
		case 3:
			v[i] = 0
		}
	}
	return v
}

// checkFused runs each fused kernel on copies of y against the unfused
// calls on the same pool — sparse.Axpy followed by Pool.Dot or
// Pool.Norm2 — and fails unless the returned value and every updated
// entry of y agree bit for bit. With a nil pool the fused kernels must
// also be sparse.AxpyDot and sparse.AxpyNorm2 exactly.
func checkFused(t *testing.T, name string, p *par.Pool, alpha float64, x, y, z []float64) {
	t.Helper()
	same := func(what string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: %s = %v (%#x), unfused %v (%#x)", name, what, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	sameVec := func(what string, got, want []float64) {
		t.Helper()
		for i := range want {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("%s: %s[%d] = %v, unfused %v", name, what, i, got[i], want[i])
			}
		}
	}

	ref := append([]float64(nil), y...)
	sparse.Axpy(alpha, x, ref)
	wantDot, wantNorm := p.Dot(ref, z), p.Norm2(ref)

	fused := append([]float64(nil), y...)
	same("AxpyDot", p.AxpyDot(alpha, x, fused, z), wantDot)
	sameVec("AxpyDot y", fused, ref)
	fused = append(fused[:0], y...)
	same("AxpyNorm2", p.AxpyNorm2(alpha, x, fused), wantNorm)
	sameVec("AxpyNorm2 y", fused, ref)

	if p == nil {
		fused = append(fused[:0], y...)
		same("sparse.AxpyDot", sparse.AxpyDot(alpha, x, fused, z), wantDot)
		sameVec("sparse.AxpyDot y", fused, ref)
		fused = append(fused[:0], y...)
		same("sparse.AxpyNorm2", sparse.AxpyNorm2(alpha, x, fused), wantNorm)
		sameVec("sparse.AxpyNorm2 y", fused, ref)

		u := append([]float64(nil), z...)
		wantU := append([]float64(nil), z...)
		sparse.Axpy(-alpha, x, wantU)
		fused = append(fused[:0], y...)
		sparse.Axpy2(alpha, x, fused, -alpha, x, u)
		sameVec("sparse.Axpy2 y", fused, ref)
		sameVec("sparse.Axpy2 v", u, wantU)
	}
}

// TestFusedKernelsMatchUnfused: every fused kernel gives bit for bit
// what the unfused calls give, for every length around the slot
// boundary, the nil pool and 1, 2, 4 and 7 workers, with and without
// the special entries.
func TestFusedKernelsMatchUnfused(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 7} {
		var p *par.Pool
		if workers > 0 {
			p = par.New(workers)
		}
		for _, n := range fusedLengths {
			for _, special := range []bool{false, true} {
				for _, alpha := range []float64{-0.7303, 1, 0, 3e-310} {
					x := fusedVector(n, 1, special)
					y := fusedVector(n, 2, special)
					z := fusedVector(n, 3, special)
					if n > 2 {
						// An entry the update cancels to an exact zero.
						x[n/2], y[n/2] = 1, -alpha
					}
					checkFused(t, fmt.Sprintf("workers=%d n=%d special=%v alpha=%v", workers, n, special, alpha), p, alpha, x, y, z)
				}
			}
		}
		p.Close()
	}
}

// FuzzFusedKernelsMatchUnfused is TestFusedKernelsMatchUnfused over
// arbitrary lengths, seeds, coefficients and pool sizes.
func FuzzFusedKernelsMatchUnfused(f *testing.F) {
	for i, n := range fusedLengths {
		f.Add(uint16(n), int64(i), -0.7303, uint8(i%5), i%2 == 1)
	}
	f.Add(uint16(4101), int64(9), 1e300, uint8(3), true)
	f.Add(uint16(2048), int64(5), 0.0, uint8(7), true)
	f.Fuzz(func(t *testing.T, n uint16, seed int64, alpha float64, workers uint8, special bool) {
		size := int(n) % (4*2048 + 1)
		var p *par.Pool
		if w := int(workers % 8); w > 0 {
			p = par.New(w)
			defer p.Close()
		}
		x := fusedVector(size, seed, special)
		y := fusedVector(size, seed+1, special)
		z := fusedVector(size, seed+2, special)
		checkFused(t, fmt.Sprintf("workers=%d n=%d", workers%8, size), p, alpha, x, y, z)
	})
}
