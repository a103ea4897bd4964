package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxComm flags context.Background() / context.TODO() passed to the
// context-taking comm and core APIs (World.RunContext, World.AbortOn,
// core.Session.Solve, and any future internal/comm or internal/core
// function with a context.Context parameter) from inside the service
// front end. A request handler that mints a fresh root context instead
// of threading the request's one detaches its solve from the request's
// cancellation scope: a -timeout, SIGTERM drain, or dropped client
// connection then cannot unblock the ranks sitting inside that call.
// The solver backends are out of scope: a communicator carries no
// context, and core.Session.solveRecover's World.AbortOn watcher poisons
// the world on cancellation whatever a backend does. The rare legitimate
// root context is suppressed per site with `//lisi:ignore ctxcomm
// <reason>`.
var CtxComm = &Analyzer{
	Name: "ctxcomm",
	Doc: "flags context.Background()/context.TODO() passed to context-taking internal/comm and " +
		"internal/core APIs from inside the service layer; thread the request context instead",
	Run: runCtxComm,
}

// ctxCommPackage is the final import-path segment of the package the
// check applies to.
const ctxCommPackage = "service"

func runCtxComm(pass *Pass) {
	seg := pass.Pkg.Path
	if i := strings.LastIndex(seg, "/"); i >= 0 {
		seg = seg[i+1:]
	}
	if seg != ctxCommPackage {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sig, pkg, name := ctxCalleeSignature(info, call)
			if sig == nil {
				return true
			}
			for i := 0; i < sig.Params().Len() && i < len(call.Args); i++ {
				if !isContextType(sig.Params().At(i).Type()) {
					continue
				}
				if root := rootContextName(info, call.Args[i]); root != "" {
					pass.Report(call.Args[i].Pos(),
						"context."+root+"() passed to "+pkg+"."+name+" detaches it from the caller's cancellation scope",
						"thread the caller's context (e.g. the request context) through instead of a root context")
				}
			}
			return true
		})
	}
}

// ctxCalleeSignature resolves call's callee; when it is a function or
// method of the internal/comm or internal/core package it returns the
// signature, the package's short name, and the callee name, otherwise
// (nil, "", "").
func ctxCalleeSignature(info *types.Info, call *ast.CallExpr) (*types.Signature, string, string) {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	case *ast.Ident:
		obj = info.Uses[fun]
	default:
		return nil, "", ""
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil, "", ""
	}
	var pkg string
	switch path := fn.Pkg().Path(); {
	case strings.HasSuffix(path, commPkgSuffix):
		pkg = "comm"
	case strings.HasSuffix(path, "internal/core"):
		pkg = "core"
	default:
		return nil, "", ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil, "", ""
	}
	return sig, pkg, fn.Name()
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// rootContextName returns "Background" or "TODO" when arg is a direct
// call of that context constructor, and "" otherwise.
func rootContextName(info *types.Info, arg ast.Expr) string {
	call, ok := ast.Unparen(arg).(*ast.CallExpr)
	if !ok {
		return ""
	}
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	case *ast.Ident:
		obj = info.Uses[fun]
	default:
		return ""
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "context" {
		return ""
	}
	if name := fn.Name(); name == "Background" || name == "TODO" {
		return name
	}
	return ""
}
