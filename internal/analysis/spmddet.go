package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// SpmdDet flags constructs that break the bitwise-determinism contract:
// every rank of every run must compute bit-identical results
// (docs/PERFORMANCE.md's fusion policy is the reduction half of that
// contract; this analyzer guards the ordering half). Four checks:
//
//  1. Map iteration feeding comm: Go randomizes map range order per
//     process, so a comm call (point-to-point or collective) issued
//     from inside a `for … range m` over a map — directly or through a
//     helper whose summary shows it transitively performs comm — sends
//     payloads or joins collectives in a different order on every rank.
//     Cross-rank this is a deadlock or a payload permutation; either
//     way results stop being reproducible. Collect the keys, sort them,
//     and iterate the sorted slice (the idiom aztec's overlap handshake
//     uses).
//
//  2. Map-ordered float folds: accumulating into a floating-point
//     variable declared outside a map range loop folds in random order;
//     float addition does not reassociate bitwise, so two runs of the
//     same rank disagree in the last ulp. Integer accumulation and
//     key-collection are untouched.
//
//  3. Goroutine-shared float accumulation: `go func() { shared += … }`
//     against a captured float has no fixed fold order (and is a data
//     race). The supported idiom — each goroutine writing its own slot
//     of a partials slice, folded in index order after the join — is
//     not flagged (indexed writes are exempt).
//
//  4. Unordered pool folds: a method named Range with the par.Task
//     shape (three int parameters — slot, lo, hi) runs concurrently on
//     every worker of an intra-rank pool. Accumulating into shared
//     floating-point state from inside it — a receiver field or a
//     variable declared outside the method — folds partials in worker
//     completion order, which varies run to run (and races). The
//     sanctioned par slot-partial idiom is exempt: each worker writes
//     only its own slot (`t.partials[slot] += v`, any indexed write)
//     or a row it owns, and the caller folds the slots in slot order
//     after Run returns; method-local accumulators are likewise fine.
//
//  5. Map-ordered storage layout in the sparse substrate: in package
//     sparse, appending float values to a slice declared outside a
//     `for … range m` over a map lays coefficients out in a
//     process-random order. The stored order of a sparse format IS the
//     kernels' floating-point fold order, so two runs (or two ranks)
//     of the same conversion would produce bitwise-different products.
//     Collecting the *keys* for a later sort is the supported repair
//     and stays silent (int appends are re-orderable; the committed
//     float layout is not), as does filling dense index scratch.
//
// Additionally, the Krylov backend packages (ksp, aztec) make no
// direct comm.AllReduceFloat64* call: every floating-point reduction of
// a Krylov loop goes through pmat.Reducer, whose method set is the
// audited reduction inventory (local halves on the pool's fixed slots,
// rank-order fold, fused forms bitwise equal to the unfused pair). An
// ad-hoc reduction in either package is where a second fold order would
// slip in.
var SpmdDet = &Analyzer{
	Name: "spmddet",
	Doc: "flags SPMD determinism hazards: comm calls or floating-point folds ordered by map iteration, " +
		"goroutine-shared float accumulation without a fixed fold order, pool-task Range methods that " +
		"fold into shared floats instead of per-worker slots, map-ordered storage-layout appends in the " +
		"sparse converters, and floating-point reductions in ksp/aztec that bypass pmat.Reducer",
	Run: runSpmdDet,
}

func runSpmdDet(pass *Pass) {
	seg := pass.Pkg.Path
	if i := strings.LastIndex(seg, "/"); i >= 0 {
		seg = seg[i+1:]
	}
	reducerInventory := seg == "ksp" || seg == "aztec"
	layoutScope := seg == "sparse"
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				spmdRangeTaskAccum(pass, fd)
			}
		}
		funcsOf(f, func(name string, body *ast.BlockStmt) {
			spmdMapRanges(pass, body)
			spmdGoroutineAccum(pass, body)
			if layoutScope {
				spmdMapLayoutAppends(pass, body)
			}
			if reducerInventory {
				spmdReducerInventory(pass, body)
			}
		})
	}
}

// spmdMapLayoutAppends implements check 5 for one sparse-package
// function body: a self-append of float values into a slice declared
// outside a map range commits storage layout in map iteration order.
func spmdMapLayoutAppends(pass *Pass, body *ast.BlockStmt) {
	info := pass.Pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := info.Types[rng.X]
		if !ok || tv.Type == nil {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		ast.Inspect(rng.Body, func(m ast.Node) bool {
			s, ok := m.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, rhs := range s.Rhs {
				if i >= len(s.Lhs) {
					break
				}
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok || !isBuiltinCall(info, call, "append") || len(call.Args) == 0 {
					continue
				}
				dst := exprString(s.Lhs[i])
				if dst != exprString(call.Args[0]) || !isFloatSlice(info, call.Args[0]) {
					continue
				}
				root := rootIdent(s.Lhs[i])
				if root == nil || !declaredOutside(info, root, rng.Pos(), rng.End()) {
					continue
				}
				pass.Report(call.Pos(),
					"append of float values to "+dst+" in map iteration order commits a sparse storage layout that is randomized per process; "+
						"the stored order is the kernels' floating-point fold order, so products stop being bitwise-reproducible",
					"index through dense scratch (count-then-fill), or collect only the keys here, sort them, and append the values in sorted key order, or suppress with //lisi:ignore spmddet <reason>")
			}
			return true
		})
		return true
	})
}

// isFloatSlice reports whether e's type is a slice of floating-point
// elements.
func isFloatSlice(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	sl, ok := tv.Type.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := sl.Elem().Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// spmdRangeTaskAccum implements check 4 for one declaration: a method
// named Range with three int parameters is the par.Task hook and runs
// concurrently on every pool worker. Floating-point accumulation into
// anything shared between workers — a receiver field or a variable
// declared outside the method body — is an unordered pool fold. Indexed
// writes (`t.partials[slot] += v`) are the sanctioned slot-partial
// idiom and accumulators declared inside the body are worker-private,
// so both stay exempt.
func spmdRangeTaskAccum(pass *Pass, decl *ast.FuncDecl) {
	if decl.Recv == nil || decl.Name.Name != "Range" || decl.Body == nil {
		return
	}
	info := pass.Pkg.Info
	if !intTriple(info, decl.Type.Params) {
		return
	}
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		s, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		target, name := sharedAccumulation(info, s)
		if target == nil {
			return true
		}
		root := rootIdent(target)
		if root == nil || !declaredOutside(info, root, decl.Body.Pos(), decl.Body.End()) {
			// A body-local accumulator (the per-row `s += …` kernel
			// shape) is private to the worker running this range.
			return true
		}
		pass.Report(s.Pos(),
			"pool task Range accumulates into shared float "+name+"; Range runs concurrently on every worker, "+
				"so the partials fold in worker completion order (and race), breaking bitwise reproducibility",
			"write each worker's partial into its own slot (e.g. partials[slot]) and fold the slots in slot order "+
				"after Run returns — the par slot-partial idiom — or suppress with //lisi:ignore spmddet <reason>")
		return true
	})
}

// intTriple reports whether the parameter list is exactly three plain
// ints — the par.Task Range(slot, lo, hi int) shape.
func intTriple(info *types.Info, params *ast.FieldList) bool {
	if params == nil {
		return false
	}
	n := 0
	for _, f := range params.List {
		tv, ok := info.Types[f.Type]
		if !ok || tv.Type == nil {
			return false
		}
		b, ok := tv.Type.Underlying().(*types.Basic)
		if !ok || b.Kind() != types.Int {
			return false
		}
		if len(f.Names) == 0 {
			n++
		} else {
			n += len(f.Names)
		}
	}
	return n == 3
}

// sharedAccumulation is floatAccumulation widened to selector targets:
// it returns the accumulated expression when s is a floating-point
// accumulation whose target is a plain identifier or a field selector
// (`t.sum += v`). Indexed writes stay exempt — they are the fixed-slot
// idiom in every check that uses this.
func sharedAccumulation(info *types.Info, s *ast.AssignStmt) (ast.Expr, string) {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		return nil, ""
	}
	lhs := ast.Unparen(s.Lhs[0])
	switch lhs.(type) {
	case *ast.Ident, *ast.SelectorExpr:
	default:
		return nil, ""
	}
	if !isFloatExpr(info, lhs) {
		return nil, ""
	}
	name := exprString(lhs)
	switch s.Tok {
	case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
		return lhs, name
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
		if exprString(ast.Unparen(bin.X)) == name || exprString(ast.Unparen(bin.Y)) == name {
			return lhs, name
		}
	}
	return nil, ""
}

// rootIdent walks selector chains to the base identifier (`t.acc.sum`
// → t); nil when the base is not an identifier (a call, an index, …).
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// spmdMapRanges implements checks 1 and 2 for one function body.
func spmdMapRanges(pass *Pass, body *ast.BlockStmt) {
	info := pass.Pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := info.Types[rng.X]
		if !ok || tv.Type == nil {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		spmdMapBody(pass, rng)
		return true
	})
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
			if tv, ok := info.Types[s.X]; ok && tv.Type != nil {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap {
					return false
				}
			}
		case *ast.CallExpr:
			if name, ok := isBlockingCommCall(info, s); ok {
				pass.Report(s.Pos(),
					"comm call Comm."+name+" is issued in map iteration order, which is randomized per process; "+
						"ranks would send payloads or join collectives in different orders",
					"collect the map keys, sort them, and iterate the sorted slice, or suppress with //lisi:ignore spmddet <reason>")
				return true
			}
			if pass.Prog != nil {
				if sum := pass.Prog.SummaryOf(info, s); len(sum.Blocking) > 0 {
					pass.Report(s.Pos(),
						"call to "+exprString(s.Fun)+" inside a map range transitively performs comm (Comm."+sum.Blocking[0]+") "+
							"in map iteration order, which is randomized per process",
						"collect the map keys, sort them, and iterate the sorted slice, or suppress with //lisi:ignore spmddet <reason>")
				}
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
// [from, to] node range — i.e. the variable outlives the loop or
// literal, making cross-iteration accumulation order observable.
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

// spmdGoroutineAccum implements check 3 for one function body: float
// accumulation inside a `go func() { … }` into a variable captured from
// the enclosing scope.
func spmdGoroutineAccum(pass *Pass, body *ast.BlockStmt) {
	info := pass.Pkg.Info
	ast.Inspect(body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			s, ok := m.(*ast.AssignStmt)
			if !ok {
				return true
			}
			if acc, name := floatAccumulation(info, s); acc != nil && declaredOutside(info, acc, lit.Pos(), lit.End()) {
				pass.Report(s.Pos(),
					"goroutine accumulates into shared float "+name+" with no fixed fold order (and races); "+
						"cross-rank bitwise reproducibility is lost even if a mutex serializes the adds",
					"give each goroutine its own slot in a partials slice and fold the slots in index order after the join, or suppress with //lisi:ignore spmddet <reason>")
			}
			return true
		})
		return true
	})
}

// spmdReducerInventory enforces the reduction inventory in ksp and
// aztec: no direct comm.AllReduceFloat64* call, pmat.Reducer only.
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
