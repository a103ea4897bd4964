package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// HotAlloc flags per-iteration heap allocation inside the solver
// iteration loops of the backend packages (ksp, aztec, mg) — the loops
// whose body applies the operator, takes inner products, or joins a
// collective every pass. The zero-allocation steady-state contract
// (docs/PERFORMANCE.md) says those loops run out of workspaces sized
// once per configuration: a make() or an append that grows its own
// slice inside such a loop allocates (and re-allocates) on every
// Krylov/smoothing iteration, which both costs GC churn and, on the
// comm-facing paths, defeats the pooled-buffer plumbing.
//
// A loop is "hot" when its body (function literals excluded) contains a
// comm collective or a call whose callee is named like the operator hot
// path (Apply, MulVec, Matvec, SpMV, Dot, Norm2, AXPY — case
// insensitive, so the ksp wrappers k.dot/k.norm2 count). Inside a hot
// loop the analyzer reports
//
//   - every make() call, and
//   - every self-append `x = append(x, ...)` (growth); the reuse idiom
//     `x = append(x[:0], ...)` keeps capacity and is not reported.
//
// The sparse kernel substrate gets two rules of its own:
//
//   - Per-product kernel methods — MulVec, MulVecAdd, Apply, and
//     par.Task-shaped Range(slot, lo, hi) methods — are the bodies the
//     steady-state 0-alloc contract runs through on every product, so
//     any make() or self-append growth anywhere in them (not just in a
//     loop) is reported. Scratch must be bound once at conversion or
//     Bind time (the SELL `acc` field and ParSpMV slot scratch).
//
//   - Converter loops — loops inside the CSR→X converters (functions
//     named *FromCSR) — must not make() per iteration: converters run
//     at Setup against production-sized operators, so a per-row or
//     per-entry allocation turns an O(nnz) pass into allocator churn.
//     The supported shape is the two-pass count-then-fill layout with
//     every array sized up front.
//
// Setup loops that only build workspaces (no hot call in the body) are
// out of scope, as are the non-backend packages. The rare legitimate
// per-iteration allocation is suppressed per site with
// `//lisi:ignore hotalloc <reason>`.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "flags make() and self-append growth inside solver iteration loops (loops applying the operator, " +
		"reducing, or joining collectives) in the ksp/aztec/mg backends, inside per-product kernel methods " +
		"(MulVec/MulVecAdd/Apply/Range) in sparse, and make() inside sparse *FromCSR converter loops; " +
		"hot paths must reuse workspaces",
	Run: runHotAlloc,
}

// hotAllocPackages are the final import-path segments of the solver
// backend packages whose iteration loops the check applies to.
var hotAllocPackages = map[string]bool{
	"ksp": true, "aztec": true, "mg": true,
}

// hotKernelMethods are the per-product kernel entry points in the
// sparse package: each runs once per SpMV (Range once per worker per
// product), so its whole body is a hot context.
var hotKernelMethods = map[string]bool{
	"MulVec": true, "MulVecAdd": true, "Apply": true, "Range": true,
}

// hotCallNames are the lower-cased callee names that mark a loop as a
// solver iteration loop: operator application and the reductions every
// Krylov iteration performs.
var hotCallNames = map[string]bool{
	"apply": true, "mulvec": true, "matvec": true, "spmv": true,
	"dot": true, "norm2": true, "axpy": true,
}

func runHotAlloc(pass *Pass) {
	seg := pass.Pkg.Path
	if i := strings.LastIndex(seg, "/"); i >= 0 {
		seg = seg[i+1:]
	}
	if seg == "sparse" {
		runHotAllocSparse(pass)
		return
	}
	if !hotAllocPackages[seg] {
		return
	}
	for _, f := range pass.Pkg.Files {
		funcsOf(f, func(name string, body *ast.BlockStmt) {
			hotAllocLoops(pass, body)
		})
	}
}

// runHotAllocSparse applies the kernel-substrate rules: per-product
// kernel method bodies are hot contexts outright, and *FromCSR
// converter loops must not make() per iteration.
func runHotAllocSparse(pass *Pass) {
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			switch {
			case fd.Recv != nil && hotKernelMethods[fd.Name.Name]:
				// Range only counts in the par.Task shape; an unrelated
				// Range method (an iterator, say) is not a kernel.
				if fd.Name.Name == "Range" && !intTriple(pass.Pkg.Info, fd.Type.Params) {
					continue
				}
				reportKernelAllocs(pass, fd.Body, fd.Name.Name)
			case strings.HasSuffix(fd.Name.Name, "FromCSR"):
				reportConverterLoopMakes(pass, fd.Body, fd.Name.Name)
			}
		}
	}
}

// reportKernelAllocs reports every make() and self-append growth in
// the body of one per-product kernel method: the whole body runs once
// per SpMV (Range once per worker per product), so any allocation in
// it breaks the steady-state 0-alloc contract.
func reportKernelAllocs(pass *Pass, body *ast.BlockStmt, method string) {
	info := pass.Pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		switch s := n.(type) {
		case *ast.CallExpr:
			if isBuiltinCall(info, s, "make") {
				pass.Report(s.Pos(),
					"make() inside per-product kernel "+method+" allocates on every product",
					"bind the scratch once at conversion or Bind time (like the SELL acc field), or suppress with //lisi:ignore hotalloc <reason>")
			}
		case *ast.AssignStmt:
			for i, rhs := range s.Rhs {
				if i >= len(s.Lhs) {
					break
				}
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isBuiltinCall(info, call, "append") || len(call.Args) == 0 {
					continue
				}
				dst := exprString(s.Lhs[i])
				if dst != exprString(call.Args[0]) {
					continue
				}
				pass.Report(call.Pos(),
					"append growth of "+dst+" inside per-product kernel "+method+" reallocates on every product",
					"preallocate "+dst+" at conversion or Bind time (append to "+dst+"[:0] to reuse it), or suppress with //lisi:ignore hotalloc <reason>")
			}
		}
		return true
	})
}

// reportConverterLoopMakes reports every make() inside a loop of one
// converter body. Makes outside loops are the supported
// count-then-fill sizing and stay silent; appends are judged by the
// general growth rule only in kernel bodies (converters may
// legitimately append into preallocated capacity).
func reportConverterLoopMakes(pass *Pass, body *ast.BlockStmt, fn string) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		var loopBody *ast.BlockStmt
		switch s := n.(type) {
		case *ast.ForStmt:
			loopBody = s.Body
		case *ast.RangeStmt:
			loopBody = s.Body
		default:
			return true
		}
		ast.Inspect(loopBody, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok {
				return false
			}
			if call, ok := m.(*ast.CallExpr); ok && isBuiltinCall(pass.Pkg.Info, call, "make") {
				pass.Report(call.Pos(),
					"make() inside a loop of converter "+fn+" allocates per iteration against a production-sized operator",
					"size every output array up front (two-pass count-then-fill) and reuse scratch across iterations, or suppress with //lisi:ignore hotalloc <reason>")
			}
			return true
		})
		return false // loopBody fully scanned, including nested loops
	})
}

// hotAllocLoops finds the outermost hot loops in one function body and
// reports the allocations inside them. Once a loop is hot its whole
// body is scanned (nested loops included), so the walk does not descend
// into it again. Function literals are skipped: funcsOf visits their
// bodies as functions in their own right.
func hotAllocLoops(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		var loopBody *ast.BlockStmt
		switch s := n.(type) {
		case *ast.ForStmt:
			loopBody = s.Body
		case *ast.RangeStmt:
			loopBody = s.Body
		default:
			return true
		}
		if hot := hotCallIn(pass, loopBody); hot != "" {
			reportHotAllocs(pass, loopBody, hot)
			return false
		}
		return true
	})
}

// hotCallIn returns a rendered name of the first hot call in the loop
// body ("" when the loop is cold): a comm collective or a callee named
// in hotCallNames.
func hotCallIn(pass *Pass, body *ast.BlockStmt) string {
	hot := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if hot != "" {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if name, ok := isCollectiveCall(pass.Pkg.Info, call); ok {
			hot = "Comm." + name
			return false
		}
		if hotCallNames[strings.ToLower(calleeName(call))] && !isSparseKernelCall(pass.Pkg.Info, call) {
			hot = exprString(call.Fun)
			return false
		}
		return true
	})
	return hot
}

// isSparseKernelCall reports whether call resolves to a function of the
// internal/sparse package. Those are the *serial local* kernels
// (sparse.Dot, sparse.Norm2 feed drop tolerances and fused local
// reductions); a loop is only a solver iteration loop when it touches
// the distributed hot path — pmat reductions, operator methods, or a
// collective.
func isSparseKernelCall(info *types.Info, call *ast.CallExpr) bool {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		id = fun.Sel
	case *ast.Ident:
		id = fun
	default:
		return false
	}
	fn, ok := info.Uses[id].(*types.Func)
	return ok && fn.Pkg() != nil && strings.HasSuffix(fn.Pkg().Path(), "internal/sparse")
}

// calleeName returns the bare name of call's callee ("" for indirect
// calls through non-identifier expressions).
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name
	case *ast.Ident:
		return fun.Name
	}
	return ""
}

// reportHotAllocs reports every make() and self-append growth in the
// body of one hot loop.
func reportHotAllocs(pass *Pass, body *ast.BlockStmt, hot string) {
	info := pass.Pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		switch s := n.(type) {
		case *ast.CallExpr:
			if isBuiltinCall(info, s, "make") {
				pass.Report(s.Pos(),
					"make() inside a solver iteration loop (hot call "+hot+") allocates on every iteration",
					"hoist the buffer into a workspace sized once before the loop, or suppress with //lisi:ignore hotalloc <reason>")
			}
		case *ast.AssignStmt:
			for i, rhs := range s.Rhs {
				if i >= len(s.Lhs) {
					break
				}
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isBuiltinCall(info, call, "append") || len(call.Args) == 0 {
					continue
				}
				dst := exprString(s.Lhs[i])
				if dst != exprString(call.Args[0]) {
					continue
				}
				pass.Report(call.Pos(),
					"append growth of "+dst+" inside a solver iteration loop (hot call "+hot+") reallocates as the slice grows",
					"preallocate "+dst+" with its final capacity before the loop (append to "+dst+"[:0] to reuse it), or suppress with //lisi:ignore hotalloc <reason>")
			}
		}
		return true
	})
}

// isBuiltinCall reports whether call invokes the named predeclared
// builtin (resolved through the type info, so a shadowing local `make`
// does not count).
func isBuiltinCall(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}
