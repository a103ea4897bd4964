package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// PortContract enforces the calling discipline of the LISI port
// (core.SparseSolver) and of the native solver entry points behind it.
// The SIDL-derived interface reports failure through int status codes and
// the native solvers through error returns; both are trivial to drop on
// the floor in Go, and a dropped ErrBadState/ErrSolveFailed turns a
// mis-sequenced port conversation into silently wrong numbers — on the
// failure paths no test takes (docs/ANALYSIS.md's seed table). Two checks:
//
//  1. a call to a SparseSolver method whose int status result is discarded
//     (expression statement, `go`/`defer`, or assigned to `_`),
//  2. a discarded `error` from the solver driver entry points
//     (Solve, SolveProblem, SolveRefined, SetupMatrix*, SetupRHS*),
//     including `x, _ :=` swallowing the error.
var PortContract = &Analyzer{
	Name: "portcontract",
	Doc: "flags ignored status codes of LISI port calls and ignored errors of solver driver calls " +
		"(Solve, SolveProblem, SolveRefined, SetupMatrix*, SetupRHS*)",
	Run: runPortContract,
}

// errorEntryPoints are the names whose trailing error result must not be
// discarded (beyond the blanket SparseSolver status rule). Setup* names
// are matched by prefix, the rest exactly.
var errorEntryPrefixes = []string{"SetupMatrix", "SetupRHS"}
var errorEntryExact = map[string]bool{"Solve": true, "SolveProblem": true, "SolveRefined": true}

func isPortEntryName(name string) bool {
	return errorEntryExact[name] || hasAnyPrefix(name, errorEntryPrefixes)
}

func runPortContract(pass *Pass) {
	iface := sparseSolverIface(pass.Pkg.Types)
	for _, f := range pass.Pkg.Files {
		funcsOf(f, func(body *ast.BlockStmt) {
			checkDiscarded(pass, iface, body)
		})
	}
}

// checkDiscarded flags port status codes and entry-point errors that the
// surrounding code never looks at.
func checkDiscarded(pass *Pass, iface *types.Interface, body *ast.BlockStmt) {
	info := pass.Pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				reportDiscardedCall(pass, iface, call, "discarded")
			}
			return true
		case *ast.GoStmt:
			reportDiscardedCall(pass, iface, n.Call, "discarded by go statement")
			return true
		case *ast.DeferStmt:
			reportDiscardedCall(pass, iface, n.Call, "discarded by defer")
			return true
		case *ast.AssignStmt:
			// Flag `_ = s.Solve(...)` (single call, all results blank) and
			// `x, _ := d.Solve(...)` where the blank swallows the error.
			if len(n.Rhs) != 1 {
				return true
			}
			call, ok := n.Rhs[0].(*ast.CallExpr)
			if !ok {
				return true
			}
			if allBlank(n.Lhs) {
				reportDiscardedCall(pass, iface, call, "assigned to _")
				return true
			}
			if name, ok := portEntryErrorCall(info, call); ok && len(n.Lhs) > 1 {
				if id, ok := n.Lhs[len(n.Lhs)-1].(*ast.Ident); ok && id.Name == "_" {
					pass.Report(call.Pos(),
						"error from "+name+" assigned to _; a failed setup/solve goes unnoticed and downstream results are garbage",
						"handle the error (or suppress with //lisi:ignore portcontract <reason>)")
				}
			}
		}
		return true
	})
}

func allBlank(lhs []ast.Expr) bool {
	for _, e := range lhs {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return true
}

// reportDiscardedCall reports call when it is a SparseSolver port method
// returning a status code, or a solver entry point returning an error,
// and the result is thrown away (how says in which way).
func reportDiscardedCall(pass *Pass, iface *types.Interface, call *ast.CallExpr, how string) {
	info := pass.Pkg.Info
	if name, recv, ok := solverPortCall(info, iface, call); ok {
		pass.Report(call.Pos(),
			"LISI status code of "+recv+"."+name+" "+how+"; ErrBadState/ErrSolveFailed would pass silently",
			"check the returned code (e.g. if code := "+recv+"."+name+"(...); code != core.OK { ... })")
		return
	}
	if name, ok := portEntryErrorCall(info, call); ok {
		pass.Report(call.Pos(),
			"error from "+name+" "+how+"; a failed setup/solve goes unnoticed",
			"handle the returned error")
	}
}

// solverPortCall reports whether call is a method call on a receiver
// implementing core.SparseSolver whose (single) result is the int status
// code, returning the method name and rendered receiver.
func solverPortCall(info *types.Info, iface *types.Interface, call *ast.CallExpr) (name, recv string, ok bool) {
	if iface == nil {
		return "", "", false
	}
	sel, okSel := call.Fun.(*ast.SelectorExpr)
	if !okSel {
		return "", "", false
	}
	tv, okType := info.Types[sel.X]
	if !okType || !implementsIface(tv.Type, iface) {
		return "", "", false
	}
	// Only methods of the port interface itself count; helper methods a
	// component adds beside the interface are not part of the contract.
	if obj, _, _ := types.LookupFieldOrMethod(iface, true, nil, sel.Sel.Name); obj == nil {
		return "", "", false
	}
	sig, okSig := info.Types[call.Fun].Type.(*types.Signature)
	if !okSig || sig.Results().Len() != 1 || !isInt(sig.Results().At(0).Type()) {
		return "", "", false
	}
	return sel.Sel.Name, exprString(sel.X), true
}

// portEntryErrorCall reports whether call is a solver entry point whose
// last result is an error, returning a printable name.
func portEntryErrorCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !isPortEntryName(sel.Sel.Name) {
		return "", false
	}
	sig, ok := info.Types[call.Fun].Type.(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return "", false
	}
	last := sig.Results().At(sig.Results().Len() - 1).Type()
	if !isErrorType(last) {
		return "", false
	}
	return exprString(sel.X) + "." + sel.Sel.Name, true
}

// sparseSolverIface locates core.SparseSolver in the package under
// analysis or anywhere in its import graph; nil when core is unreachable
// (then the interface-based checks are moot for this package).
func sparseSolverIface(pkg *types.Package) *types.Interface {
	seen := make(map[*types.Package]bool)
	var find func(p *types.Package) *types.Interface
	find = func(p *types.Package) *types.Interface {
		if seen[p] {
			return nil
		}
		seen[p] = true
		if strings.HasSuffix(p.Path(), "internal/core") {
			if obj := p.Scope().Lookup("SparseSolver"); obj != nil {
				if iface, ok := obj.Type().Underlying().(*types.Interface); ok {
					return iface
				}
			}
		}
		for _, imp := range p.Imports() {
			if iface := find(imp); iface != nil {
				return iface
			}
		}
		return nil
	}
	return find(pkg)
}

func implementsIface(t types.Type, iface *types.Interface) bool {
	return types.Implements(t, iface) || types.Implements(types.NewPointer(t), iface)
}

func isInt(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Int
}

func isErrorType(t types.Type) bool {
	return types.Identical(t, types.Universe.Lookup("error").Type())
}
