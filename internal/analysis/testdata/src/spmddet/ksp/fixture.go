// Fixture for the spmddet analyzer's reduction-inventory check, scoped
// to packages named ksp or aztec (this directory mirrors ksp): no direct
// comm.AllReduceFloat64* call — the Krylov packages reduce through
// pmat.Reducer, whose method set is the audited inventory.
package ksp

import "repro/internal/comm"

func adHocFused(c *comm.Comm, vals []float64) {
	c.AllReduceFloat64sInPlace(vals, comm.OpSum) // want "direct comm.AllReduceFloat64sInPlace in a Krylov backend package"
}

func adHocScalar(c *comm.Comm, v float64) float64 {
	return c.AllReduceFloat64(v, comm.OpSum) // want "direct comm.AllReduceFloat64 in a Krylov backend package"
}

// intReduce is legal: integer reductions have no fold-order bits to
// protect, and neither have the other collectives.
func intReduce(c *comm.Comm, n int) int {
	c.Barrier()
	return c.AllReduceInt(n, comm.OpSum)
}
