package main

import (
	"fmt"
	"sort"

	"repro/internal/aztec"
	"repro/internal/cca"
	"repro/internal/comm"
	"repro/internal/core"
	"repro/internal/ksp"
	"repro/internal/par"
	"repro/internal/pmat"
	"repro/internal/slu"
	"repro/internal/sparse"
)

// nativeSolver is the program a developer would hand-write against one
// solver package, with no port, adapter or session in between: the
// denominator of every overhead_ratio (the paper's NonCCA path).
type nativeSolver interface {
	// setup builds the package's operator (and factors, for the direct
	// solver) from this rank's rows. Collective.
	setup(c *comm.Comm, l *pmat.Layout, a *sparse.CSR) error
	// solve solves against the operator from setup. Collective.
	solve(x, b []float64) (iters int, err error)
	close()
}

const maxIterations = 20000

// kspNative is GMRES(30) with block ILU(0) on the petsc-role package.
type kspNative struct {
	tol float64
	pc  string
	k   *ksp.KSP
}

func (n *kspNative) setup(c *comm.Comm, l *pmat.Layout, a *sparse.CSR) error {
	pm, err := pmat.NewMat(l, a)
	if err != nil {
		return err
	}
	k := ksp.New(c)
	k.SetOperators(ksp.NewMat(pm))
	if err := k.SetType(ksp.TypeGMRES); err != nil {
		return err
	}
	if err := k.SetPCType(n.pc); err != nil {
		return err
	}
	k.SetTolerances(n.tol, -1, -1, maxIterations)
	if err := k.SetRestart(30); err != nil {
		return err
	}
	n.k = k
	return nil
}

func (n *kspNative) solve(x, b []float64) (int, error) {
	err := n.k.Solve(b, x)
	return n.k.Iterations(), err
}

func (n *kspNative) close() {}

// aztecNative is CG (GMRES when the operator is not symmetric) with the
// domain-decomposition ILUT preconditioner on the trilinos-role package.
type aztecNative struct {
	tol     float64
	solver  int // aztec.AZCG or aztec.AZGMRES
	workers int
	s       *aztec.Solver
	pool    *par.Pool
}

func (n *aztecNative) setup(c *comm.Comm, l *pmat.Layout, a *sparse.CSR) error {
	mp, err := aztec.NewMapWithLocal(c, l.LocalN)
	if err != nil {
		return err
	}
	crs := aztec.NewCrsMatrix(mp)
	for lr := 0; lr < l.LocalN; lr++ {
		cols, vals := a.RowView(lr)
		if err := crs.InsertGlobalValues(l.Start+lr, cols, vals); err != nil {
			return err
		}
	}
	if err := crs.FillComplete(); err != nil {
		return err
	}
	s := aztec.NewSolver(c)
	s.SetUserMatrix(crs)
	s.Options()[aztec.AZSolver] = n.solver
	s.Options()[aztec.AZPrecond] = aztec.AZDomDecomp
	if n.workers > 1 {
		n.pool = par.New(n.workers)
		s.SetPool(n.pool)
	}
	n.s = s
	return nil
}

func (n *aztecNative) solve(x, b []float64) (int, error) {
	for i := range x {
		x[i] = 0
	}
	err := n.s.Iterate(x, b, maxIterations, n.tol)
	return n.s.NumIters(), err
}

func (n *aztecNative) close() {
	if n.pool != nil {
		n.pool.Close()
	}
}

// sluNative is the superlu-role direct solver: factor once, then one
// pair of triangular sweeps per right-hand side.
type sluNative struct{ d *slu.DistSolver }

func (n *sluNative) setup(_ *comm.Comm, l *pmat.Layout, a *sparse.CSR) error {
	pm, err := pmat.NewMat(l, a)
	if err != nil {
		return err
	}
	n.d, err = slu.NewDistSolver(pm, slu.DefaultOptions())
	return err
}

func (n *sluNative) solve(x, b []float64) (int, error) {
	_, err := n.d.SolveRefinedInto(x, b, 0)
	return 0, err
}

func (n *sluNative) close() {}

// classPortDriver is the CCA class of the benchmark's own driver
// component: an application component with one SparseSolver uses port,
// through which the fem-cg workload pushes an operator that
// core.DriverComponent (stencil-only) cannot generate.
const classPortDriver = "bench.portdriver"

type portDriver struct{ svc cca.Services }

func (d *portDriver) SetServices(svc cca.Services) error {
	d.svc = svc
	return svc.RegisterUsesPort("solver", core.PortTypeSparseSolver)
}

func init() {
	cca.RegisterClass(classPortDriver, func() cca.Component { return &portDriver{} })
}

// assemblePort builds the paper's two-component assembly on c — driver
// class connected to the backend's solver class — and returns the
// driver instance.
func assemblePort(c *comm.Comm, driverClass, backend string) (cca.Component, error) {
	info, ok := core.Lookup(backend)
	if !ok {
		return nil, fmt.Errorf("backend %q is not registered", backend)
	}
	fw := cca.NewFramework(c)
	if err := fw.CreateInstance("driver", driverClass); err != nil {
		return nil, err
	}
	if err := fw.CreateInstance("solver", info.Class); err != nil {
		return nil, err
	}
	if err := fw.Connect("driver", "solver", "solver", core.PortSparseSolver); err != nil {
		return nil, err
	}
	return fw.Instance("driver")
}

// solve pushes one system through the connected SparseSolver port, call
// for call what core.DriverComponent.SolveProblem does after generating
// its rows.
func (d *portDriver) solve(l *pmat.Layout, a *sparse.CSR, b, x []float64, params map[string]string) (core.SolveResult, error) {
	port, err := d.svc.GetPort("solver")
	if err != nil {
		return core.SolveResult{}, err
	}
	defer d.svc.ReleasePort("solver") //nolint:errcheck // only fails for an unregistered name
	s, ok := port.(core.SparseSolver)
	if !ok {
		return core.SolveResult{}, fmt.Errorf("connected port is not a SparseSolver")
	}
	steps := []int{
		s.Initialize(d.svc.Comm()),
		s.SetStartRow(l.Start),
		s.SetLocalRows(l.LocalN),
		s.SetLocalNNZ(a.NNZ()),
		s.SetGlobalCols(l.N),
		s.SetupMatrix(a.Vals, a.RowPtr, a.ColInd, core.CSR, len(a.RowPtr), a.NNZ()),
		s.SetupRHS(b, l.LocalN, 1),
	}
	for _, code := range steps {
		if code != core.OK {
			return core.SolveResult{}, core.Check(code)
		}
	}
	keys := make([]string, 0, len(params))
	for k := range params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if code := s.Set(k, params[k]); code != core.OK {
			return core.SolveResult{}, fmt.Errorf("set %s=%s: %w", k, params[k], core.Check(code))
		}
	}
	status := make([]float64, core.StatusLen)
	code := s.Solve(x, status, l.LocalN, core.StatusLen)
	res := core.SolveResult{
		Iterations: int(status[core.StatusIterations]),
		Residual:   status[core.StatusResidual],
		Converged:  status[core.StatusConverged] == 1,
	}
	return res, core.Check(code)
}
