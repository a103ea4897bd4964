package analysis

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Loader type-checks packages of one module using only the standard
// library: module-local import paths are resolved to directories under the
// module root and checked from source, and everything else (the standard
// library — the module has no external dependencies) is delegated to the
// stdlib source importer. Results are memoized, so a package shared by many
// roots is checked once.
type Loader struct {
	Root   string // absolute path of the module root (directory of go.mod)
	Module string // module path from go.mod

	fset  *token.FileSet
	std   types.ImporterFrom
	cache map[string]*loaded
}

type loaded struct {
	pkg *Package
	err error
}

// NewLoader locates the enclosing module starting at dir (walking upward
// to the first go.mod) and returns a loader for it.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root := abs
	for {
		if _, err := os.Stat(filepath.Join(root, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(root)
		if parent == root {
			return nil, fmt.Errorf("analysis: no go.mod found above %s", abs)
		}
		root = parent
	}
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		Root:   root,
		Module: mod,
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		cache:  make(map[string]*loaded),
	}, nil
}

// modulePath extracts the module path from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// Load expands the given patterns (a directory, an import path below the
// module, or either with a trailing /... wildcard) and returns the matched
// packages, type-checked, sorted by import path. Directories named testdata
// and files ending in _test.go are skipped by wildcard expansion — test
// files deliberately violate SPMD invariants (abort tests rank-gate
// collectives on purpose) — but a testdata directory named explicitly is
// loaded, which is how fixtures are analyzed.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs := make(map[string]bool)
	for _, pat := range patterns {
		rec := false
		if strings.HasSuffix(pat, "/...") {
			rec = true
			pat = strings.TrimSuffix(pat, "/...")
		}
		if pat == "." || pat == "./" {
			pat = ""
		}
		pat = strings.TrimPrefix(pat, "./")
		dir := filepath.Join(l.Root, filepath.FromSlash(pat))
		if !rec {
			dirs[dir] = true
			continue
		}
		err := filepath.WalkDir(dir, func(p string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if p != dir && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(p) {
				dirs[p] = true
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	var pkgs []*Package
	for dir := range dirs {
		path, err := l.importPathFor(dir)
		if err != nil {
			return nil, err
		}
		pkg, err := l.load(path)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// importPathFor maps a directory under the module root to its import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.Root, abs)
	if err != nil || strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("analysis: %s is outside module root %s", dir, l.Root)
	}
	if rel == "." {
		return l.Module, nil
	}
	return l.Module + "/" + filepath.ToSlash(rel), nil
}

// buildConstraintOK evaluates a file's //go:build line (if any) for the
// default build: current GOOS/GOARCH, no custom tags. Without this, a
// package split into tag-gated flavors (e.g. internal/service's
// faultinject hook) type-checks both flavors at once and fails on the
// deliberate redeclarations.
func buildConstraintOK(src []byte) bool {
	for _, line := range strings.Split(string(src), "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "package ") {
			break
		}
		if !constraint.IsGoBuild(line) {
			continue
		}
		expr, err := constraint.Parse(line)
		if err != nil {
			return true // malformed: let the real toolchain complain
		}
		return expr.Eval(func(tag string) bool {
			return tag == runtime.GOOS || tag == runtime.GOARCH ||
				tag == "gc" || tag == "unix" || strings.HasPrefix(tag, "go1")
		})
	}
	return true
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if n := e.Name(); !e.IsDir() && strings.HasSuffix(n, ".go") && !strings.HasSuffix(n, "_test.go") {
			return true
		}
	}
	return false
}

// load parses and type-checks the package with the given module-local
// import path, memoized. It returns (nil, nil) for directories with no
// non-test Go files.
func (l *Loader) load(path string) (*Package, error) {
	if c, ok := l.cache[path]; ok {
		return c.pkg, c.err
	}
	// Reserve the slot to fail fast on import cycles instead of recursing
	// forever; the checker reports the cycle as a normal error.
	l.cache[path] = &loaded{err: fmt.Errorf("analysis: import cycle through %s", path)}
	pkg, err := l.check(path)
	l.cache[path] = &loaded{pkg: pkg, err: err}
	return pkg, err
}

func (l *Loader) check(path string) (*Package, error) {
	rel := strings.TrimPrefix(path, l.Module)
	dir := filepath.Join(l.Root, filepath.FromSlash(strings.TrimPrefix(rel, "/")))
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		src, err := os.ReadFile(filepath.Join(dir, n))
		if err != nil {
			return nil, err
		}
		if !buildConstraintOK(src) {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, n), src, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{
		Importer: importerFunc(func(imp string) (*types.Package, error) {
			if imp == l.Module || strings.HasPrefix(imp, l.Module+"/") {
				p, err := l.load(imp)
				if err != nil {
					return nil, err
				}
				if p == nil {
					return nil, fmt.Errorf("analysis: import %q has no Go files", imp)
				}
				return p.Types, nil
			}
			return l.std.ImportFrom(imp, dir, 0)
		}),
	}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Fset: l.fset, Files: files, Types: tpkg, Info: info}, nil
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
