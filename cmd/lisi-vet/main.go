// Command lisi-vet runs the repository's SPMD-aware static analysis suite
// (internal/analysis) over the module: the domain invariants that neither
// generic `go vet` nor any test catches (docs/ANALYSIS.md keeps the seed
// table that shows which ones those are).
//
// Usage:
//
//	lisi-vet [-list] [pattern ...]
//
// Patterns are module-relative directories, optionally with a /...
// wildcard (default: ./internal/... ./cmd/...). Wildcards skip testdata
// directories and _test.go files; naming a testdata directory explicitly
// analyzes it. Findings are printed sorted by file:line:column. A
// //lisi:ignore comment that is malformed, names no analyzer, or silences
// nothing is a finding too.
//
// The exit status is 0 when nothing is found, 1 when something is, and 2
// when the flags are wrong or a pattern does not load. -list prints the
// analyzers and exits 0.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, writes findings to stdout
// and the summary or error to stderr, and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lisi-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	suite := analysis.Analyzers()
	if *list {
		for _, a := range suite {
			fmt.Fprintf(stdout, "%-20s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 || (len(patterns) == 1 && patterns[0] == "./...") {
		// The module root holds no Go files; the code lives under
		// internal/ and cmd/.
		patterns = []string{"./internal/...", "./cmd/..."}
	}
	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintf(stderr, "lisi-vet: %v\n", err)
		return 2
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "lisi-vet: %v\n", err)
		return 2
	}

	diags := analysis.Run(suite, pkgs)
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "lisi-vet: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	fmt.Fprintf(stderr, "lisi-vet: ok (%d packages, %d analyzers)\n", len(pkgs), len(suite))
	return 0
}
