package pmat

import (
	"math"

	"repro/internal/comm"
	"repro/internal/sparse"
)

// Distributed vector operations. A distributed vector is simply each
// rank's local slice, conformal with a Layout; these helpers perform the
// global reductions.

// Dot returns the global dot product of two conformally distributed
// vectors (collective).
func Dot(c *comm.Comm, x, y []float64) float64 {
	return c.AllReduceFloat64(sparse.Dot(x, y), comm.OpSum)
}

// Norm2 returns the global Euclidean norm of a distributed vector
// (collective).
func Norm2(c *comm.Comm, x []float64) float64 {
	local := sparse.Norm2(x)
	return math.Sqrt(c.AllReduceFloat64(local*local, comm.OpSum))
}

// Gather collects a distributed vector onto root in global row order;
// other ranks receive nil (collective).
func Gather(l *Layout, root int, x []float64) []float64 {
	return l.c.GatherVFloat64s(root, x)
}

// GatherInto is Gather reusing dst as root's result buffer (grown only
// when too small); non-root ranks receive nil (collective).
func GatherInto(l *Layout, root int, dst, x []float64) []float64 {
	return l.c.GatherVFloat64sInto(root, dst, x)
}

// AllGather collects a distributed vector onto every rank (collective).
func AllGather(l *Layout, x []float64) []float64 {
	return l.c.AllGatherVFloat64s(x)
}

// AllGatherInto is AllGather reusing dst as the result buffer (grown only
// when too small), so repeated gathers of a fixed-size vector do not
// allocate (collective).
func AllGatherInto(l *Layout, dst, x []float64) []float64 {
	return l.c.AllGatherVFloat64sInto(dst, x)
}
