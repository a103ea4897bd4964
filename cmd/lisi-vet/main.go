// Command lisi-vet runs the repository's SPMD-aware static analysis suite
// (internal/analysis) over the module: domain invariants generic `go vet`
// cannot check, such as collective symmetry over ranks (including
// collectives reached through helper calls), blocking comm calls under
// held mutexes, LISI port-contract violations, context plumbing into comm,
// pooled-buffer ownership and SPMD determinism hazards.
//
// Usage:
//
//	lisi-vet [flags] [pattern ...]
//
// Patterns are module-relative directories, optionally with a /...
// wildcard (default: ./internal/... ./cmd/...). Wildcards skip testdata
// directories and _test.go files; naming a testdata directory explicitly
// analyzes it, which is what CI's negative controls do. Diagnostics are
// printed sorted by file:line:column and the exit status is 1 when any
// survive `//lisi:ignore <analyzer> <reason>` suppression.
//
// -json emits every diagnostic — suppressed ones included, marked — as a
// JSON array, which CI turns into GitHub annotations. -ignore-audit
// instead lists //lisi:ignore comments that no longer suppress anything;
// it always runs the full suite, since under a partial one an ignore
// naturally looks unused.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"repro/internal/analysis"
)

// jsonDiag is the -json wire format, one element per diagnostic.
type jsonDiag struct {
	File       string `json:"file"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Hint       string `json:"hint,omitempty"`
	Suppressed bool   `json:"suppressed"`
}

func toJSON(diags []analysis.Diagnostic) []jsonDiag {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiag{
			File:       d.Pos.Filename,
			Line:       d.Pos.Line,
			Col:        d.Pos.Column,
			Analyzer:   d.Analyzer,
			Message:    d.Message,
			Hint:       d.Hint,
			Suppressed: d.Suppressed,
		})
	}
	return out
}

func main() {
	var (
		list    = flag.Bool("list", false, "list the analyzers and exit")
		only    = flag.String("only", "", "run a single analyzer by name instead of the full suite")
		jsonOut = flag.Bool("json", false,
			"emit diagnostics as a JSON array (file/line/col/analyzer/message/suppressed), suppressed findings included")
		ignoreAudit = flag.Bool("ignore-audit", false,
			"report //lisi:ignore comments that no longer suppress anything (always runs the full suite; -only is ignored)")
	)
	flag.Parse()

	if *list {
		for _, a := range analysis.Analyzers() {
			fmt.Printf("%-20s %s\n", a.Name, a.Doc)
		}
		return
	}

	suite := analysis.Analyzers()
	if *only != "" && !*ignoreAudit {
		a := analysis.ByName(*only)
		if a == nil {
			fmt.Fprintf(os.Stderr, "lisi-vet: unknown analyzer %q (see -list)\n", *only)
			os.Exit(2)
		}
		suite = []*analysis.Analyzer{a}
	}

	patterns := flag.Args()
	if len(patterns) == 0 || (len(patterns) == 1 && patterns[0] == "./...") {
		// The module root holds no Go files; the code lives under internal/
		// and cmd/, which is also what the issue's contract names.
		patterns = []string{"./internal/...", "./cmd/..."}
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintf(os.Stderr, "lisi-vet: %v\n", err)
		os.Exit(2)
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "lisi-vet: %v\n", err)
		os.Exit(2)
	}

	res := analysis.RunDetailed(suite, pkgs)

	if *ignoreAudit {
		emit(res.Stale, *jsonOut)
		if len(res.Stale) > 0 {
			fmt.Fprintf(os.Stderr, "lisi-vet: %d stale suppression(s) in %d package(s)\n", len(res.Stale), len(pkgs))
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "lisi-vet: suppressions ok (%d packages)\n", len(pkgs))
		return
	}

	var active []analysis.Diagnostic
	for _, d := range res.Diags {
		if !d.Suppressed {
			active = append(active, d)
		}
	}
	if *jsonOut {
		emit(res.Diags, true)
	} else {
		emit(active, false)
	}
	if len(active) > 0 {
		fmt.Fprintf(os.Stderr, "lisi-vet: %d finding(s) in %d package(s)\n", len(active), len(pkgs))
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "lisi-vet: ok (%d packages, %d analyzers)\n", len(pkgs), len(suite))
}

// emit prints diagnostics as text lines or as one JSON array.
func emit(diags []analysis.Diagnostic, asJSON bool) {
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(toJSON(diags)); err != nil {
			fmt.Fprintf(os.Stderr, "lisi-vet: encoding JSON: %v\n", err)
			os.Exit(2)
		}
		return
	}
	for _, d := range diags {
		fmt.Println(d.String())
	}
}
