package main

import (
	"fmt"
	"hash/fnv"

	"repro/internal/sparse"
)

// rng is splitmix64: tiny, seedable, identical on every platform. The
// benchmark derives every input from it; the program under test only
// ever sees the generated operators, right-hand sides and requests.
type rng struct{ s uint64 }

func newRNG(seed int64, stream string) *rng {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, stream)
	return &rng{s: h.Sum64()}
}

func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	return mix64(r.s)
}

// unit returns a float in [0,1).
func (r *rng) unit() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns an int in [0,n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// opKind is one operation class of a steady phase.
type opKind byte

const (
	opBase     opKind = 'b' // the generator's own right-hand side, unchanged (cold cycles)
	opWarm     opKind = 'w' // new right-hand side against the staged operator
	opRefresh  opKind = 'r' // same pattern, new values: restage and solve
	opKSP      opKind = 'k' // service: pooled petsc operator
	opMulti    opKind = 'm' // service: nrhs=4 against the pooled superlu operator
	opBumpCSR  opKind = 'c' // service: version+1 with an explicit matrix body
	opBumpMM   opKind = 'x' // service: version+1 with a matrix_market body
	multiNRHS         = 4
	refreshEps        = 1e-6 // relative size of a refresh's diagonal perturbation
	rhsBlend          = 0.05 // weight of the rotated copy blended into each right-hand side
)

// op is one scheduled operation. Shift and Scale define its right-hand
// side as a rotation of the base vector (rotateRHS); Version is the
// operator version it solves against (perturbValues).
type op struct {
	Kind    opKind
	Shift   int
	Scale   float64
	Version int
}

// schedule is the fixed operation list one client runs in every epoch's
// steady phase. Counts are fixed, never durations, so two builds of the
// program do identical work.
type schedule []op

// solverSchedule builds a session workload's steady phase: warm solves
// with refreshes placed at seeded positions (never first, so every
// version serves warm solves before it is replaced).
func solverSchedule(r *rng, n, warm, refreshes int) schedule {
	total := warm + refreshes
	isRefresh := make([]bool, total)
	for placed := 0; placed < refreshes; {
		at := 1 + r.intn(total-1)
		if !isRefresh[at] {
			isRefresh[at] = true
			placed++
		}
	}
	s := make(schedule, total)
	version := 1
	for i := range s {
		s[i] = op{Kind: opWarm, Shift: r.intn(n), Scale: 0.5 + r.unit()}
		if isRefresh[i] {
			version++
			s[i].Kind = opRefresh
		}
		s[i].Version = version
	}
	return s
}

// serviceSchedule builds one closed-loop client's request list with the
// exact mix 70 % pooled superlu, 20 % pooled petsc, 8 % nrhs=4 and 2 %
// version bumps (alternating body kinds), in seeded order.
func serviceSchedule(r *rng, requests, nSLU, nKSP int) schedule {
	bumps := max(requests*2/100, 2)
	multi := requests * 8 / 100
	ksp := requests * 20 / 100
	kinds := make([]opKind, 0, requests)
	for i := 0; i < bumps; i++ {
		kinds = append(kinds, opBumpCSR) // body kind is fixed up below, in schedule order
	}
	for i := 0; i < multi; i++ {
		kinds = append(kinds, opMulti)
	}
	for i := 0; i < ksp; i++ {
		kinds = append(kinds, opKSP)
	}
	for len(kinds) < requests {
		kinds = append(kinds, opWarm)
	}
	for i := len(kinds) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		kinds[i], kinds[j] = kinds[j], kinds[i]
	}
	s := make(schedule, requests)
	version, bump := 1, 0
	for i, k := range kinds {
		n := nSLU
		if k == opKSP {
			n = nKSP
		}
		s[i] = op{Kind: k, Shift: r.intn(n), Scale: 0.5 + r.unit()}
		if k == opBumpCSR {
			version++
			if bump%2 == 1 {
				s[i].Kind = opBumpMM
			}
			bump++
		}
		s[i].Version = version
		if k == opKSP {
			s[i].Version = 1 // the petsc operator is shared and never replaced
		}
	}
	return s
}

// rotateRHS writes rows [start, start+len(dst)) of the operation's
// right-hand side: the base vector plus rhsBlend of its rotation by
// Shift, scaled. The base keeps the forcing term's smooth character (a
// bare rotation converges in a third of the iterations); the rotated
// part makes every right-hand side genuinely new data.
func rotateRHS(dst, base []float64, start int, o op) {
	n := len(base)
	if o.Kind == opBase {
		copy(dst, base[start:start+len(dst)])
		return
	}
	for i := range dst {
		dst[i] = o.Scale * (base[start+i] + rhsBlend*base[(start+i+o.Shift)%n])
	}
}

// perturbValues returns the values of operator version v for the local
// block a whose first row is global row start: version 1 is a itself,
// later versions scale every entry by a seeded factor in [0.9,1.1] and
// grow each diagonal entry by up to refreshEps. The diagonal only ever
// grows, so an SPD or diagonally dominant operator stays one, and the
// result depends on global indices only, so every rank (and the
// harness's global copy) derives the same operator.
func perturbValues(a *sparse.CSR, start int, seed int64, v int) []float64 {
	vals := append([]float64(nil), a.Vals...)
	if v <= 1 {
		return vals
	}
	key := uint64(seed)*0x9e3779b97f4a7c15 + uint64(v)
	scale := 0.9 + 0.2*float64(mix64(key)>>11)/(1<<53)
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			vals[k] *= scale
			if a.ColInd[k] == start+i {
				u := float64(mix64(key^uint64(start+i)<<20)>>11) / (1 << 53)
				vals[k] *= 1 + refreshEps*u
			}
		}
	}
	return vals
}

// withValues returns a sharing a's pattern with the given values.
func withValues(a *sparse.CSR, vals []float64) *sparse.CSR {
	return &sparse.CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: a.RowPtr, ColInd: a.ColInd, Vals: vals}
}
