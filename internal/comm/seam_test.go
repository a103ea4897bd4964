package comm_test

import (
	"math"
	"runtime"
	"testing"

	"repro/internal/comm"
	"repro/internal/ksp"
	"repro/internal/mesh"
	"repro/internal/pmat"
	"repro/internal/telemetry"
)

// stencilGMRES solves the paper's stencil on a 32×32 grid with GMRES(30) +
// ILU on the given number of ranks and returns rank 0's iteration count,
// an FNV-1a hash over the bits of every monitored residual norm followed
// by every rank's solution block in rank order, and the world's counters.
func stencilGMRES(t *testing.T, ranks int) (its int, hash uint64, stats comm.Stats) {
	t.Helper()
	problem := mesh.PaperProblem(32)
	w, err := comm.NewWorld(ranks)
	if err != nil {
		t.Fatal(err)
	}
	hashes := make([]uint64, ranks)
	err = w.Run(func(c *comm.Comm) {
		l, err := pmat.EvenLayout(c, problem.N())
		if err != nil {
			panic(err)
		}
		local, b, err := problem.GenerateLocal(l)
		if err != nil {
			panic(err)
		}
		m, err := pmat.NewMat(l, local)
		if err != nil {
			panic(err)
		}
		k := ksp.New(c)
		k.SetOperators(ksp.NewMat(m))
		if err := k.SetType(ksp.TypeGMRES); err != nil {
			panic(err)
		}
		if err := k.SetPCType(ksp.PCILU); err != nil {
			panic(err)
		}
		if err := k.SetRestart(30); err != nil {
			panic(err)
		}
		k.SetTolerances(1e-10, 0, 0, 2000)
		h := uint64(14695981039346656037)
		mix := func(v float64) {
			bits := math.Float64bits(v)
			for s := 0; s < 64; s += 8 {
				h ^= (bits >> s) & 0xff
				h *= 1099511628211
			}
		}
		rec := telemetry.New()
		k.SetRecorder(rec)
		x := make([]float64, l.LocalN)
		if err := k.Solve(b, x); err != nil {
			panic(err)
		}
		for _, p := range rec.Snapshot().Residuals {
			mix(p.Residual)
		}
		for _, v := range x {
			mix(v)
		}
		hashes[c.Rank()] = h
		if c.Rank() == 0 {
			its = k.Iterations()
		}
	})
	if err != nil {
		t.Fatalf("%d ranks: %v", ranks, err)
	}
	for _, h := range hashes {
		hash = hash*1099511628211 ^ h
	}
	return its, hash, w.Stats()
}

// TestSolveBitwiseWhateverTheWait is the proof that how a rank waits
// moves no bit: the same solve with every wait parking at once (poll
// budget 0, the behaviour before waits polled) and at the default
// budget returns the same iteration count, residual history and solution
// on 2 and on 3 ranks, through the same number of collectives, barriers
// and messages.
func TestSolveBitwiseWhateverTheWait(t *testing.T) {
	for _, ranks := range []int{2, 3} {
		restore := comm.SetPollBudget(0)
		itsPark, hashPark, statsPark := stencilGMRES(t, ranks)
		restore()
		its, hash, stats := stencilGMRES(t, ranks)
		if its != itsPark || hash != hashPark {
			t.Errorf("%d ranks: default budget got (%d its, %#x), always-park got (%d its, %#x)", ranks, its, hash, itsPark, hashPark)
		}
		if stats.Collectives != statsPark.Collectives || stats.BarrierEntries != statsPark.BarrierEntries ||
			stats.Sends != statsPark.Sends || stats.BytesSent != statsPark.BytesSent {
			t.Errorf("%d ranks: traffic differs: default %+v, always-park %+v", ranks, stats, statsPark)
		}
		if its == 0 || stats.Collectives == 0 || stats.Recvs == 0 {
			t.Errorf("%d ranks: the solve did not exercise the waits: %d its, %+v", ranks, its, stats)
		}
		t.Logf("%d ranks: %d its; parks barrier/recv: default %d/%d of %d/%d, always-park %d/%d",
			ranks, its, stats.BarrierParks, stats.RecvParks, stats.BarrierEntries, stats.Recvs, statsPark.BarrierParks, statsPark.RecvParks)
	}
}

// TestSolveLiveOnOneP: a 2-rank GMRES solve on one P gives the bits it
// gives on two and parks in at most 1 % of its waits. A poll that never
// yielded would spend its budget while the peer cannot run and park in
// about half of them (1,865 of 3,732 barrier entries and 60 of 120
// receives with the Gosched removed).
func TestSolveLiveOnOneP(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	its2, hash2, _ := stencilGMRES(t, 2)
	runtime.GOMAXPROCS(1)
	its1, hash1, s := stencilGMRES(t, 2)
	if its1 != its2 || hash1 != hash2 {
		t.Errorf("1 P got (%d its, %#x), 2 Ps got (%d its, %#x)", its1, hash1, its2, hash2)
	}
	parks, waits := s.BarrierParks+s.RecvParks, s.BarrierEntries+s.Recvs
	t.Logf("2 ranks on 1 P: %d of %d barrier entries and receives parked", parks, waits)
	if waits == 0 || parks > waits/100 {
		t.Errorf("2 ranks on 1 P: %d of %d barrier entries and receives parked, want at most 1 %%", parks, waits)
	}
}
