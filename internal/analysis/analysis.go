// Package analysis is lisi-vet's engine: a small, dependency-free
// static-analysis framework (in the spirit of golang.org/x/tools/go/analysis,
// rebuilt on the standard library alone) plus the SPMD-aware analyzers that
// guard the invariants generic `go vet` cannot see.
//
// The invariants come straight from the runtime model of this repository:
// internal/comm reproduces MPI's collective contract — every rank of a World
// must execute the same sequence of collectives — so a collective reachable
// only under a rank-dependent branch deadlocks the world (the bug class the
// PR 1 Split abort fix handled at runtime). The analyzers move that class of
// error, and a few neighbouring contract violations of the LISI port layer,
// from hang-at-runtime to fail-at-lint.
//
// Each Analyzer inspects one type-checked package at a time through a Pass
// and reports Diagnostics. Diagnostics can be suppressed at the call site
// with a `//lisi:ignore <analyzer> <reason>` comment (see ignore.go). The
// cmd/lisi-vet driver loads packages, runs every analyzer, filters
// suppressed findings and prints the rest sorted by position so output is
// deterministic.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// `//lisi:ignore <name> <reason>` suppression comments.
	Name string
	// Doc is a one-paragraph description, shown by `lisi-vet -list`.
	Doc string
	// Run inspects pass and reports findings via pass.Report.
	Run func(pass *Pass)
}

// Pass hands one package to an analyzer together with the shared type
// information, the cross-package interprocedural index, and a sink for
// diagnostics.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package
	// Prog spans every package of this Run invocation: analyzers use it
	// to resolve call edges and read per-function summaries
	// (interproc.go).
	Prog *Program

	diags *[]Diagnostic
}

// Report records a finding at pos. hint is a one-line suggested fix and
// must not be empty: every lisi-vet diagnostic tells the reader what to do
// about it.
func (p *Pass) Report(pos token.Pos, msg, hint string) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  msg,
		Hint:     hint,
	})
}

// Diagnostic is one finding, carrying everything the driver needs to print
// `file:line:col: [analyzer] message (fix: hint)`.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
	Hint     string
	// Suppressed marks a finding silenced by a //lisi:ignore comment.
	// Run drops suppressed findings; RunDetailed keeps them (marked) so
	// the -json output and the suppression audit can see them.
	Suppressed bool
}

// String renders the diagnostic in the driver's output format.
func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
	if d.Hint != "" {
		s += fmt.Sprintf(" (fix: %s)", d.Hint)
	}
	return s
}

// Analyzers returns the full lisi-vet suite in a fixed order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		CollectiveSym,
		BlockingUnderLock,
		PortContract,
		CtxComm,
		BufOwn,
		SpmdDet,
	}
}

// ByName returns the analyzer with the given name, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// RunAnalyzers applies every analyzer in the suite to every package,
// drops suppressed diagnostics, and returns the rest sorted by file,
// line, column and analyzer name — a total order, so output is
// deterministic across runs and machines.
func RunAnalyzers(pkgs []*Package) []Diagnostic {
	return Run(Analyzers(), pkgs)
}

// Run applies the given analyzers to the given packages and returns the
// surviving diagnostics in deterministic order. Malformed suppression
// comments (missing analyzer name or reason) are themselves reported.
func Run(analyzers []*Analyzer, pkgs []*Package) []Diagnostic {
	var diags []Diagnostic
	for _, d := range RunDetailed(analyzers, pkgs).Diags {
		if !d.Suppressed {
			diags = append(diags, d)
		}
	}
	return diags
}

// Result is the full outcome of a RunDetailed invocation.
type Result struct {
	// Diags holds every diagnostic, suppressed ones included (marked),
	// in the deterministic file/line/column/analyzer order.
	Diags []Diagnostic
	// Stale lists well-formed //lisi:ignore comments that suppressed
	// nothing in this run — candidates for removal. Meaningful only
	// when the run covered the full analyzer suite.
	Stale []Diagnostic
}

// RunDetailed is Run keeping the suppressed diagnostics (marked) and
// reporting stale suppression comments, for the -json output and the
// -ignore-audit mode of the driver.
func RunDetailed(analyzers []*Analyzer, pkgs []*Package) Result {
	prog := NewProgram(pkgs)
	var res Result
	for _, pkg := range pkgs {
		ig := newIgnoreIndex(pkg.Fset, pkg.Files)
		var pkgDiags []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Fset: pkg.Fset, Pkg: pkg, Prog: prog, diags: &pkgDiags}
			a.Run(pass)
		}
		for _, d := range pkgDiags {
			d.Suppressed = ig.suppresses(d)
			res.Diags = append(res.Diags, d)
		}
		res.Diags = append(res.Diags, ig.malformed...)
		res.Stale = append(res.Stale, ig.stale()...)
	}
	sortDiags(res.Diags)
	sortDiags(res.Stale)
	return res
}

func sortDiags(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// Package is one loaded, type-checked package as seen by analyzers.
type Package struct {
	// Path is the import path ("repro/internal/comm").
	Path string
	// Fset positions every file in the package.
	Fset *token.FileSet
	// Files are the parsed non-test sources, with comments.
	Files []*ast.File
	// Types is the type-checked package object.
	Types *types.Package
	// Info holds use/def/type records for every expression.
	Info *types.Info
}
