package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// Shared recognizers for the repository's domain types. All analyzers key
// off the *type-checked* identity of internal/comm, not off spelling, so aliasing the import or shadowing a name cannot dodge
// a check.

// commPkgSuffix matches the import path of the SPMD runtime package.
const commPkgSuffix = "internal/comm"

// collectivePrefixes are the method-name families on *comm.Comm whose MPI
// contract requires every rank of the world to participate. Split is a
// collective too: it runs an AllGather handshake internally.
var collectivePrefixes = []string{
	"Barrier", "AllReduce", "AllGather", "Bcast", "Gather",
	"Scatter", "ExScan", "Reduce", "Split",
}

// blockingPrefixes extends the collectives with the point-to-point calls
// that can block indefinitely when the peer never arrives.
var blockingPrefixes = append([]string{"Send", "Recv"}, collectivePrefixes...)

func hasAnyPrefix(name string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// isPkgType reports whether t (after pointer indirection) is the named type
// pkgSuffix.typeName of this module.
func isPkgType(t types.Type, pkgSuffix, typeName string) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == typeName && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), pkgSuffix)
}

// commMethod returns the method name when call is a method call on a
// *comm.Comm (or comm.Comm) receiver, and "" otherwise.
func commMethod(info *types.Info, call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	tv, ok := info.Types[sel.X]
	if !ok || !isPkgType(tv.Type, commPkgSuffix, "Comm") {
		return ""
	}
	return sel.Sel.Name
}

// isCollectiveCall reports whether call is a collective on a comm.Comm.
func isCollectiveCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	name := commMethod(info, call)
	return name, name != "" && hasAnyPrefix(name, collectivePrefixes)
}

// isBlockingCommCall reports whether call is a collective or point-to-point
// blocking call on a comm.Comm.
func isBlockingCommCall(info *types.Info, call *ast.CallExpr) (string, bool) {
	name := commMethod(info, call)
	return name, name != "" && hasAnyPrefix(name, blockingPrefixes)
}

// isRankCall reports whether expr is a call of comm.Comm.Rank.
func isRankCall(info *types.Info, expr ast.Expr) bool {
	call, ok := expr.(*ast.CallExpr)
	return ok && commMethod(info, call) == "Rank"
}

// funcsOf yields every function body in the file along with a display
// name: declared functions and methods plus function literals.
func funcsOf(f *ast.File, visit func(name string, body *ast.BlockStmt)) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch fn := n.(type) {
		case *ast.FuncDecl:
			if fn.Body != nil {
				visit(fn.Name.Name, fn.Body)
			}
		case *ast.FuncLit:
			visit("func literal", fn.Body)
		}
		return true
	})
}

// exprString renders a (small) expression for use as a map key or in a
// diagnostic: selector chains and identifiers print as written, anything
// else falls back to a positional placeholder so distinct expressions stay
// distinct.
func exprString(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.ParenExpr:
		return exprString(e.X)
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	case *ast.IndexExpr:
		return exprString(e.X) + "[" + exprString(e.Index) + "]"
	case *ast.CallExpr:
		return exprString(e.Fun) + "()"
	case *ast.BasicLit:
		return e.Value
	}
	return "?"
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
