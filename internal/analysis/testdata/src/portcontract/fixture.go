// Fixture for the portcontract analyzer: discarded LISI status codes and
// discarded solver errors must be flagged.
package portcontract

import "repro/internal/core"

func droppedStatus(s core.SparseSolver, b []float64) {
	s.SetupRHS(b, len(b), 1) // want "LISI status code of s.SetupRHS discarded"
}

func blankStatus(s core.SparseSolver, x, st []float64) {
	_ = s.Solve(x, st, len(x), len(st)) // want "LISI status code of s.Solve assigned to _"
}

// native mirrors the slu.DistSolver entry points.
type native struct{}

func (*native) Solve(b []float64) ([]float64, error) { return nil, nil }
func (*native) SolveRefined(b []float64, steps int) ([]float64, float64, error) {
	return nil, 0, nil
}

func droppedError(n *native, b []float64) {
	n.Solve(b) // want "error from n.Solve discarded"
}

func blankError(n *native, b []float64) []float64 {
	x, _, _ := n.SolveRefined(b, 1) // want "error from n.SolveRefined assigned to _"
	return x
}

// handledStatus consumes every status code; nothing to flag.
func handledStatus(s core.SparseSolver, b []float64) error {
	if code := s.SetupRHS(b, len(b), 1); code != core.OK {
		return core.Check(code)
	}
	return nil
}

func suppressed(s core.SparseSolver, b []float64) {
	//lisi:ignore portcontract fixture: exercising the suppression path
	s.SetupRHS(b, len(b), 1)
}
