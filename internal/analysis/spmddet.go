package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// SpmdDet flags constructs that break the bitwise-determinism contract
// where no test looks (docs/ANALYSIS.md's seed table): every rank of
// every run must compute bit-identical results (docs/PERFORMANCE.md's
// fusion policy is the reduction half of that contract; this analyzer
// guards the ordering half). Three checks:
//
//  1. Map iteration feeding comm: Go randomizes map range order per
//     process, so a comm call (point-to-point or collective) issued
//     from inside a `for … range m` over a map sends payloads or joins
//     collectives in a different order on every rank. Collect the keys,
//     sort them, and iterate the sorted slice (the idiom aztec's overlap
//     handshake uses).
//
//  2. Map-ordered float folds: accumulating into a floating-point
//     variable declared outside a map range loop folds in random order;
//     float addition does not reassociate bitwise, so two runs of the
//     same rank disagree in the last ulp. Integer accumulation and
//     key-collection are untouched.
//
//  3. Reduction inventory: the Krylov backend packages (ksp, aztec) make
//     no direct comm.AllReduceFloat64* call. Every floating-point
//     reduction of a Krylov loop goes through pmat.Reducer, whose method
//     set is the audited reduction inventory (local halves on the pool's
//     fixed slots, rank-order fold, fused forms bitwise equal to the
//     unfused pair). An ad-hoc reduction in either package is where a
//     second fold order would slip in.
var SpmdDet = &Analyzer{
	Name: "spmddet",
	Doc: "flags SPMD determinism hazards: comm calls or floating-point folds ordered by map iteration, " +
		"and floating-point reductions in ksp/aztec that bypass pmat.Reducer",
	Run: runSpmdDet,
}

func runSpmdDet(pass *Pass) {
	seg := pass.Pkg.Path
	if i := strings.LastIndex(seg, "/"); i >= 0 {
		seg = seg[i+1:]
	}
	reducerInventory := seg == "ksp" || seg == "aztec"
	for _, f := range pass.Pkg.Files {
		funcsOf(f, func(body *ast.BlockStmt) {
			spmdMapRanges(pass, body)
			if reducerInventory {
				spmdReducerInventory(pass, body)
			}
		})
	}
}

// spmdMapRanges implements checks 1 and 2 for one function body.
func spmdMapRanges(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if rng, ok := n.(*ast.RangeStmt); ok && isMapRange(pass.Pkg.Info, rng) {
			spmdMapBody(pass, rng)
		}
		return true
	})
}

func isMapRange(info *types.Info, rng *ast.RangeStmt) bool {
	tv, ok := info.Types[rng.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// spmdMapBody scans one map range body. Function literals are included:
// a goroutine or callback spawned per map entry inherits the random
// order.
func spmdMapBody(pass *Pass, rng *ast.RangeStmt) {
	info := pass.Pkg.Info
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.RangeStmt:
			// A nested map range is its own finding site; skip it here so
			// its body is not reported twice.
			return !isMapRange(info, s)
		case *ast.CallExpr:
			if name, ok := isBlockingCommCall(info, s); ok {
				pass.Report(s.Pos(),
					"comm call Comm."+name+" is issued in map iteration order, which is randomized per process; "+
						"ranks would send payloads or join collectives in different orders",
					"collect the map keys, sort them, and iterate the sorted slice, or suppress with //lisi:ignore spmddet <reason>")
			}
		case *ast.AssignStmt:
			if acc, name := floatAccumulation(info, s); acc != nil && declaredOutside(info, acc, rng.Pos(), rng.End()) {
				pass.Report(s.Pos(),
					"floating-point accumulation into "+name+" in map iteration order folds in a randomized order; "+
						"float addition is not bitwise reassociative, so results differ run to run and rank to rank",
					"iterate sorted keys, or accumulate per key and fold in a fixed order, or suppress with //lisi:ignore spmddet <reason>")
			}
		}
		return true
	})
}

// floatAccumulation returns the accumulated identifier (and its
// rendering) when s is a floating-point accumulation: an op-assign
// (`x += v`, `x *= v`, …) or the spelled-out `x = x + v` form. The
// target must be a plain identifier — indexed writes (`partial[i] += v`)
// are the fixed-slot idiom and stay exempt.
func floatAccumulation(info *types.Info, s *ast.AssignStmt) (*ast.Ident, string) {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return nil, ""
	}
	id, ok := ast.Unparen(s.Lhs[0]).(*ast.Ident)
	if !ok || !isFloatExpr(info, id) {
		return nil, ""
	}
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		return id, id.Name
	case token.ASSIGN:
		// x = x + v (or v + x, x - v, …).
		bin, ok := ast.Unparen(s.Rhs[0]).(*ast.BinaryExpr)
		if !ok {
			return nil, ""
		}
		switch bin.Op {
		case token.ADD, token.SUB, token.MUL, token.QUO:
		default:
			return nil, ""
		}
		if exprString(ast.Unparen(bin.X)) == id.Name || exprString(ast.Unparen(bin.Y)) == id.Name {
			return id, id.Name
		}
	}
	return nil, ""
}

func isFloatExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// declaredOutside reports whether id's object is declared outside the
// [from, to] node range — i.e. the variable outlives the loop, making
// cross-iteration accumulation order observable.
func declaredOutside(info *types.Info, id *ast.Ident, from, to token.Pos) bool {
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	if obj == nil {
		return false
	}
	return obj.Pos() < from || obj.Pos() > to
}

// spmdReducerInventory implements check 3 in ksp and aztec: no direct
// comm.AllReduceFloat64* call, pmat.Reducer only.
func spmdReducerInventory(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if m := commMethod(pass.Pkg.Info, call); strings.HasPrefix(m, "AllReduceFloat64") {
			pass.Report(call.Pos(),
				"direct comm."+m+" in a Krylov backend package; every floating-point reduction of ksp and aztec "+
					"goes through pmat.Reducer so one local fold and one rank-order fold serve both (docs/PERFORMANCE.md)",
				"call the pmat.Reducer method (Dot, Norm2, NormDot, Dot2, Norm2x2, Norm2x2Dot), adding one there if a new fused shape is needed, or suppress with //lisi:ignore spmddet <reason>")
		}
		return true
	})
}
