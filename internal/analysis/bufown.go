package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// BufOwn enforces the ownership boundary of the pooled-buffer contract in
// docs/PERFORMANCE.md (rule 5): a method that stages a receiver field
// into SendFloat64sPooled owns that staging buffer privately and
// forever; another method of the same type returning the field leaks it
// across the ownership boundary — the caller may retain or mutate it
// while later sends stage into it. No test sees the leak until a caller
// misuses the buffer (docs/ANALYSIS.md's seed table); the in-flight and
// recycle rules of the same contract are caught by -race and the
// bitwise tests instead.
var BufOwn = &Analyzer{
	Name: "bufown",
	Doc: "enforces the pooled-buffer ownership boundary (docs/PERFORMANCE.md rule 5): no returning " +
		"plan-owned pooled staging buffers from a method of the type that stages them",
	Run: bufownStagingBoundary,
}

// bufownStagingBoundary reports receiver fields staged into pooled sends
// anywhere in the type's methods and returned by any method of that type.
func bufownStagingBoundary(pass *Pass) {
	info := pass.Pkg.Info
	// Pass A: fields of each receiver type posted to SendFloat64sPooled.
	staged := make(map[string]map[string]bool) // type name → field names
	forEachMethod(pass, func(typeName string, recv types.Object, decl *ast.FuncDecl) {
		// One-level alias map: `buf := o.sendBuf[r]` makes buf stand for
		// the field for the rest of the method (the idiom the staging
		// loops in pmat and aztec use).
		alias := make(map[types.Object]string)
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			if as, ok := n.(*ast.AssignStmt); ok {
				for i, rhs := range as.Rhs {
					if i >= len(as.Lhs) {
						break
					}
					field := receiverField(info, rhs, recv)
					if field == "" {
						continue
					}
					if id, ok := as.Lhs[i].(*ast.Ident); ok {
						if obj := info.Defs[id]; obj != nil {
							alias[obj] = field
						} else if obj := info.Uses[id]; obj != nil {
							alias[obj] = field
						}
					}
				}
			}
			return true
		})
		fieldOf := func(arg ast.Expr) string {
			if field := receiverField(info, arg, recv); field != "" {
				return field
			}
			if obj := rootObject(info, arg); obj != nil {
				return alias[obj]
			}
			return ""
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name := commMethod(info, call)
			if !strings.HasPrefix(name, "Send") || !strings.Contains(name, "Pooled") {
				return true
			}
			for _, arg := range call.Args {
				if field := fieldOf(arg); field != "" {
					if staged[typeName] == nil {
						staged[typeName] = make(map[string]bool)
					}
					staged[typeName][field] = true
				}
			}
			return true
		})
	})
	if len(staged) == 0 {
		return
	}
	// Pass B: methods of those types returning a staged field.
	forEachMethod(pass, func(typeName string, recv types.Object, decl *ast.FuncDecl) {
		fields := staged[typeName]
		if len(fields) == 0 {
			return
		}
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			ret, ok := n.(*ast.ReturnStmt)
			if !ok {
				return true
			}
			for _, e := range ret.Results {
				field := receiverField(info, e, recv)
				if field == "" || !fields[field] {
					continue
				}
				pass.Report(e.Pos(),
					"returning plan-owned pooled staging buffer "+typeName+"."+field+" across the ownership boundary; "+
						"callers may retain or mutate it while later sends stage into it",
					"return a copy, or keep the staging buffer private to "+typeName+"'s methods (suppress with //lisi:ignore bufown <reason>)")
			}
			return true
		})
	})
}

// forEachMethod visits every method declaration of the package with its
// receiver type name and receiver object.
func forEachMethod(pass *Pass, visit func(typeName string, recv types.Object, decl *ast.FuncDecl)) {
	for _, f := range pass.Pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil || len(fd.Recv.List) == 0 {
				continue
			}
			t := fd.Recv.List[0].Type
			if star, ok := t.(*ast.StarExpr); ok {
				t = star.X
			}
			id, ok := t.(*ast.Ident)
			if !ok {
				continue
			}
			var recvObj types.Object
			if len(fd.Recv.List[0].Names) > 0 {
				recvObj = pass.Pkg.Info.Defs[fd.Recv.List[0].Names[0]]
			}
			if recvObj == nil {
				continue
			}
			visit(id.Name, recvObj, fd)
		}
	}
}

// receiverField returns the field name when e (unwrapped through
// index/slice) is recv.<field>, and "" otherwise.
func receiverField(info *types.Info, e ast.Expr, recv types.Object) string {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.SelectorExpr:
			if id, ok := ast.Unparen(x.X).(*ast.Ident); ok && info.Uses[id] == recv {
				return x.Sel.Name
			}
			return ""
		default:
			return ""
		}
	}
}

// rootObject unwraps index/slice/paren expressions and returns the
// object of the root identifier, or nil.
func rootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil {
				return obj
			}
			return info.Defs[x]
		default:
			return nil
		}
	}
}
