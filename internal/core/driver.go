package core

import (
	"fmt"
	"time"

	"repro/internal/cca"
	"repro/internal/mesh"
	"repro/internal/pmat"
	"repro/internal/telemetry"
)

// ClassDriver is the CCA class name of the reference application
// component.
const ClassDriver = "lisi.driver"

// DriverComponent is the application side of the paper's test
// architecture (Figure 3): a mesh-generator/driver component with a
// SparseSolver uses port. It generates its block rows of the PDE system,
// pushes them through whatever solver component is currently connected,
// and returns the local solution — the code that stays unchanged when
// solvers are swapped (Figure 4).
type DriverComponent struct {
	svc cca.Services
	rec *telemetry.Recorder
}

var _ cca.Component = (*DriverComponent)(nil)

// NewDriverComponent returns the driver (CCA class ClassDriver).
func NewDriverComponent() *DriverComponent { return &DriverComponent{} }

// SetRecorder attaches a telemetry recorder. At the next SolveProblem
// the driver hands it to the connected solver component (when that
// component is Instrumented) and additionally records the wall time
// spent inside pre-solve port calls as the counter "lisi.port_call_ns":
// that window minus the component's port_overhead phase is pure
// dispatch cost, the quantity behind the paper's Figure 5 comparison.
func (d *DriverComponent) SetRecorder(r *telemetry.Recorder) { d.rec = r }

// SetServices implements cca.Component: the driver only *uses* the
// solver port (§6.4 — uses ports on the application side).
func (d *DriverComponent) SetServices(svc cca.Services) error {
	d.svc = svc
	return svc.RegisterUsesPort("solver", PortTypeSparseSolver)
}

// Result carries one solve's outputs back to the caller.
type Result struct {
	X          []float64 // this rank's block of the solution
	Iterations int
	Residual   float64
	Converged  bool
	Layout     *pmat.Layout
}

// SolveProblem runs the full §8 experiment body once through the
// connected solver component: generate local mesh data, transfer the
// system through the LISI port in the given input format, set the given
// parameters (sorted for determinism), solve, and collect status
// (collective).
func (d *DriverComponent) SolveProblem(p mesh.Problem, format SparseStruct, params map[string]string) (*Result, error) {
	c := d.svc.Comm()
	l, err := pmat.EvenLayout(c, p.N())
	if err != nil {
		return nil, err
	}
	a, b, err := p.GenerateLocal(l)
	if err != nil {
		return nil, err
	}

	port, err := d.svc.GetPort("solver")
	if err != nil {
		return nil, fmt.Errorf("driver: solver port not connected: %w", err)
	}
	defer d.svc.ReleasePort("solver")
	s, ok := port.(SparseSolver)
	if !ok {
		return nil, fmt.Errorf("driver: connected port is not a SparseSolver")
	}
	if ins, ok := port.(Instrumented); ok {
		ins.SetRecorder(d.rec)
	}

	portStart := time.Now()
	if code := s.Initialize(c); code != OK {
		return nil, Check(code)
	}
	if code := s.SetStartRow(l.Start); code != OK {
		return nil, Check(code)
	}
	if code := s.SetLocalRows(l.LocalN); code != OK {
		return nil, Check(code)
	}
	if code := s.SetLocalNNZ(a.NNZ()); code != OK {
		return nil, Check(code)
	}
	if code := s.SetGlobalCols(p.N()); code != OK {
		return nil, Check(code)
	}

	switch format {
	case CSR:
		if code := s.SetupMatrix(a.Vals, a.RowPtr, a.ColInd, CSR, len(a.RowPtr), a.NNZ()); code != OK {
			return nil, fmt.Errorf("driver: setupMatrix(CSR): %w", Check(code))
		}
	case COO:
		coo := a.ToCOO()
		// Row indices must be global for the COO path.
		rows := make([]int, len(coo.Row))
		for k, r := range coo.Row {
			rows[k] = r + l.Start
		}
		if code := s.SetupMatrixCOO(coo.Val, rows, coo.Col, len(coo.Val)); code != OK {
			return nil, fmt.Errorf("driver: setupMatrix(COO): %w", Check(code))
		}
	default:
		return nil, fmt.Errorf("driver: unsupported transfer format %v", format)
	}

	if code := s.SetupRHS(b, l.LocalN, 1); code != OK {
		return nil, fmt.Errorf("driver: setupRHS: %w", Check(code))
	}

	if err := setParams(s, params, nil); err != nil {
		return nil, fmt.Errorf("driver: %w", err)
	}
	d.rec.Add("lisi.port_call_ns", int64(time.Since(portStart)))

	x := make([]float64, l.LocalN)
	status := make([]float64, StatusLen)
	if code := s.Solve(x, status, l.LocalN, StatusLen); code != OK {
		return nil, fmt.Errorf("driver: solve: %w", Check(code))
	}
	return &Result{
		X:          x,
		Iterations: int(status[StatusIterations]),
		Residual:   status[StatusResidual],
		Converged:  status[StatusConverged] == 1,
		Layout:     l,
	}, nil
}

func init() {
	cca.RegisterClass(ClassDriver, func() cca.Component { return NewDriverComponent() })
}
