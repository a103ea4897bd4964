package aztec

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/comm"
	"repro/internal/sparse"
)

// TestOverlapSchwarzApplyAllocs gates the steady-state overlap apply at
// zero allocations process-wide: the residual exchange stages into
// plan-owned buffers and ships them through the world's payload pool.
// Rank 0 measures; the other ranks mirror its runs+1 calls so every
// collective apply is matched.
func TestOverlapSchwarzApplyAllocs(t *testing.T) {
	const runs = 20
	global := sparse.Laplace2D(10, 10)
	for _, procs := range []int{2, 3} {
		run(t, procs, func(c *comm.Comm) {
			crs := buildCrs(c, global)
			o, err := newOverlapSchwarz(crs, 2, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			n := crs.RowMap().NumMyElements()
			r := sparse.RandomVector(n, int64(3+c.Rank()))
			z := make([]float64, n)
			step := func() {
				o.apply(z, r)
				c.Barrier()
			}
			for i := 0; i < 4; i++ {
				step() // prime the payload pool past the in-flight high-water mark
			}
			runtime.GC()
			if c.Rank() == 0 {
				avg := testing.AllocsPerRun(runs, step)
				if !raceEnabled && avg != 0 {
					t.Errorf("%d-rank overlap apply allocates %.2f allocs/op process-wide, want 0", procs, avg)
				}
			} else {
				for i := 0; i < runs+1; i++ {
					step()
				}
			}
			c.Barrier()
		})
	}
}

// TestOverlapSchwarzTraffic pins the world's message, byte and
// collective counts of one overlap-2 GMRES solve at 2 and 3 ranks, set
// up and solved, as recorded at 98841a5 plus the set-up's pmat.Agree
// (one collective per rank): the residual exchange and the row service
// must not change what goes over the wire.
func TestOverlapSchwarzTraffic(t *testing.T) {
	want := map[int]string{
		2: "its=16 sends=76 recvs=76 bytes=3776/3776 collectives=318 barriers=636",
		3: "its=20 sends=184 recvs=184 bytes=9152/9152 collectives=711 barriers=1422",
	}
	global := sparse.Laplace2D(10, 10)
	for _, procs := range []int{2, 3} {
		w, err := comm.NewWorld(procs)
		if err != nil {
			t.Fatal(err)
		}
		its := 0
		if err := w.Run(func(c *comm.Comm) {
			crs := buildCrs(c, global)
			s := NewSolver(c)
			s.SetUserMatrix(crs)
			s.Options()[AZSolver] = AZGMRES
			s.Options()[AZPrecond] = AZDomDecomp
			s.Options()[AZOverlap] = 2
			n := crs.RowMap().NumMyElements()
			b := make([]float64, n)
			for i := range b {
				b[i] = 1
			}
			x := make([]float64, n)
			if err := s.Iterate(x, b, 3000, 1e-10); err != nil {
				t.Error(err)
			}
			if c.Rank() == 0 {
				its = s.NumIters()
			}
		}); err != nil {
			t.Fatal(err)
		}
		st := w.Stats()
		got := fmt.Sprintf("its=%d sends=%d recvs=%d bytes=%d/%d collectives=%d barriers=%d",
			its, st.Sends, st.Recvs, st.BytesSent, st.BytesRecv, st.Collectives, st.BarrierEntries)
		if got != want[procs] {
			t.Errorf("%d ranks: %s, recorded %s", procs, got, want[procs])
		}
	}
}
