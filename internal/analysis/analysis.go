// Package analysis is lisi-vet's engine: a small, dependency-free
// static-analysis framework (in the spirit of golang.org/x/tools/go/analysis,
// rebuilt on the standard library alone) plus the analyzers that guard the
// invariants neither generic `go vet` nor any test catches: dropped LISI
// failure results, root contexts in the cancellation-scoped packages, a
// pooled staging buffer leaked by its owner, and ordering hazards against
// the bitwise-determinism contract. docs/ANALYSIS.md's seed table is the
// evidence for each one; a check whose bug a test already catches does not
// belong here.
//
// Each Analyzer inspects one type-checked package at a time through a Pass
// and reports Diagnostics. Diagnostics can be suppressed at the call site
// with a `//lisi:ignore <analyzer> <reason>` comment (see ignore.go); a
// suppression that silences nothing is a finding of its own. The
// cmd/lisi-vet driver loads packages, runs every analyzer and prints what
// Run returns, sorted by position so output is deterministic.
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

// Pass hands one package to an analyzer together with its type
// information and a sink for diagnostics.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Pkg      *Package

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
		PortContract,
		CtxComm,
		BufOwn,
		SpmdDet,
	}
}

// Run applies the analyzers to the packages and returns every finding no
// //lisi:ignore comment silences, plus one for each malformed suppression
// and one for each suppression that names an analyzer that ran and
// silenced nothing. The order is file, line, column, analyzer — a total
// order, so output is deterministic across runs and machines.
func Run(analyzers []*Analyzer, pkgs []*Package) []Diagnostic {
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		ig := newIgnoreIndex(pkg.Fset, pkg.Files)
		var pkgDiags []Diagnostic
		for _, a := range analyzers {
			a.Run(&Pass{Analyzer: a, Fset: pkg.Fset, Pkg: pkg, diags: &pkgDiags})
		}
		for _, d := range pkgDiags {
			if !ig.suppresses(d) {
				diags = append(diags, d)
			}
		}
		diags = append(diags, ig.malformed...)
		diags = append(diags, ig.stale(ran)...)
	}
	sortDiags(diags)
	return diags
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
