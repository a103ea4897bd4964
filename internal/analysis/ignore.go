package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Suppression comments have the form
//
//	//lisi:ignore <analyzer> <reason>
//
// and silence that analyzer's diagnostics on the same line, or — when the
// comment stands alone — on the next source line. The reason is mandatory:
// an ignore that does not say why it is safe, names no suite analyzer, or
// silences nothing in a run of its analyzer is reported as a finding of
// its own, so the suppression inventory stays auditable.
const ignorePrefix = "lisi:ignore"

// ignoreEntry is one well-formed suppression comment, tracked so a run
// can report comments that no longer suppress anything.
type ignoreEntry struct {
	pos  token.Position // position of the comment itself
	name string         // analyzer name
	used bool           // set when a diagnostic matched this entry
}

// ignoreIndex records which (line, analyzer) pairs are suppressed in one
// package, plus diagnostics for malformed ignore comments.
type ignoreIndex struct {
	// byLine maps file:line to the suppressing entries by analyzer name.
	byLine    map[string]map[string]*ignoreEntry
	entries   []*ignoreEntry
	malformed []Diagnostic
}

func newIgnoreIndex(fset *token.FileSet, files []*ast.File) *ignoreIndex {
	ix := &ignoreIndex{byLine: make(map[string]map[string]*ignoreEntry)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//"+ignorePrefix)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				fields := strings.Fields(text)
				if len(fields) < 2 {
					ix.malformed = append(ix.malformed, Diagnostic{
						Pos:      pos,
						Analyzer: "lisi-vet",
						Message:  "malformed suppression: want //lisi:ignore <analyzer> <reason>",
						Hint:     "name the analyzer and state why the finding is safe to ignore",
					})
					continue
				}
				name := fields[0]
				if !knownAnalyzer(name) {
					ix.malformed = append(ix.malformed, Diagnostic{
						Pos:      pos,
						Analyzer: "lisi-vet",
						Message:  "suppression names unknown analyzer " + name,
						Hint:     "use one of the analyzer names lisi-vet -list prints",
					})
					continue
				}
				entry := &ignoreEntry{pos: pos, name: name}
				ix.entries = append(ix.entries, entry)
				// A comment on its own line suppresses the line below it;
				// a trailing comment suppresses its own line. Telling the
				// cases apart needs the line's first token, which the AST
				// does not index cheaply, so suppress both lines: ignore
				// comments are rare and an extra suppressed line directly
				// above a deliberate one is harmless.
				for _, line := range []int{pos.Line, pos.Line + 1} {
					key := lineKey(pos.Filename, line)
					if ix.byLine[key] == nil {
						ix.byLine[key] = make(map[string]*ignoreEntry)
					}
					ix.byLine[key][name] = entry
				}
			}
		}
	}
	return ix
}

// stale returns one diagnostic per entry that names an analyzer that ran
// and suppressed nothing. Callers must have fed every diagnostic of the
// run through suppresses first; an entry for an analyzer that did not run
// could not have been used, so it is not reported.
func (ix *ignoreIndex) stale(ran map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, e := range ix.entries {
		if e.used || !ran[e.name] {
			continue
		}
		out = append(out, Diagnostic{
			Pos:      e.pos,
			Analyzer: "lisi-vet",
			Message:  "stale suppression: no " + e.name + " diagnostic fires on the suppressed line anymore",
			Hint:     "delete the //lisi:ignore comment (or re-point it if the code moved)",
		})
	}
	return out
}

// knownAnalyzer reports whether name is one of the suite's analyzers.
func knownAnalyzer(name string) bool {
	for _, a := range Analyzers() {
		if a.Name == name {
			return true
		}
	}
	return false
}

func lineKey(file string, line int) string {
	return file + ":" + itoa(line)
}

// itoa avoids pulling strconv into the hot path for tiny ints.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [12]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// suppresses reports whether d is silenced by an ignore comment, and
// marks the matching entry used for the stale check.
func (ix *ignoreIndex) suppresses(d Diagnostic) bool {
	e := ix.byLine[lineKey(d.Pos.Filename, d.Pos.Line)][d.Analyzer]
	if e == nil {
		return false
	}
	e.used = true
	return true
}
