package analysis_test

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/analysis"
)

// sharedLoader type-checks comm/core/telemetry (and the stdlib) once for
// the whole test binary; fixture packages are memoized on top of it.
var sharedLoader = sync.OnceValues(func() (*analysis.Loader, error) {
	return analysis.NewLoader(".")
})

// wantRe extracts the quoted regexes of one `// want "..." "..."` comment.
var wantRe = regexp.MustCompile(`//\s*want\s+(.*)$`)
var quotedRe = regexp.MustCompile(`"(?:[^"\\]|\\.)*"`)

type lineKey struct {
	file string
	line int
}

// loadWants scans the fixture sources under dir (module-relative) for
// `// want "regex"` comments, keyed by file and line.
func loadWants(t *testing.T, root, dir string) map[lineKey][]*regexp.Regexp {
	t.Helper()
	wants := make(map[lineKey][]*regexp.Regexp)
	abs := filepath.Join(root, filepath.FromSlash(dir))
	ents, err := os.ReadDir(abs)
	if err != nil {
		t.Fatalf("reading fixture dir %s: %v", dir, err)
	}
	for _, e := range ents {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(abs, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			key := lineKey{file: path, line: i + 1}
			for _, q := range quotedRe.FindAllString(m[1], -1) {
				text, err := strconv.Unquote(q)
				if err != nil {
					t.Fatalf("%s:%d: bad want string %s: %v", path, i+1, q, err)
				}
				re, err := regexp.Compile(text)
				if err != nil {
					t.Fatalf("%s:%d: bad want regexp %q: %v", path, i+1, text, err)
				}
				wants[key] = append(wants[key], re)
			}
		}
	}
	return wants
}

// runFixture runs one analyzer over the fixture dirs and checks its
// diagnostics against the fixtures' want comments: every want must be
// matched by a diagnostic on its line and every diagnostic must be
// expected by a want.
func runFixture(t *testing.T, name string, dirs ...string) {
	t.Helper()
	loader, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(dirs...)
	if err != nil {
		t.Fatal(err)
	}
	var a *analysis.Analyzer
	for _, x := range analysis.Analyzers() {
		if x.Name == name {
			a = x
		}
	}
	if a == nil {
		t.Fatalf("no analyzer named %q", name)
	}
	diags := analysis.Run([]*analysis.Analyzer{a}, pkgs)

	wants := make(map[lineKey][]*regexp.Regexp)
	for _, dir := range dirs {
		for k, v := range loadWants(t, loader.Root, dir) {
			wants[k] = append(wants[k], v...)
		}
	}

	matched := make(map[lineKey][]bool)
	for k, res := range wants {
		matched[k] = make([]bool, len(res))
	}
	for _, d := range diags {
		key := lineKey{file: d.Pos.Filename, line: d.Pos.Line}
		res := wants[key]
		found := false
		for i, re := range res {
			if re.MatchString(d.Message) {
				matched[key][i] = true
				found = true
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d.String())
		}
	}
	for k, res := range wants {
		for i, re := range res {
			if !matched[k][i] {
				t.Errorf("%s:%d: missing diagnostic matching %q", k.file, k.line, re.String())
			}
		}
	}
}

const fixtureRoot = "internal/analysis/testdata/src"

func TestPortContractFixture(t *testing.T) {
	runFixture(t, "portcontract", fixtureRoot+"/portcontract")
}

func TestCtxCommFixture(t *testing.T) {
	runFixture(t, "ctxcomm",
		fixtureRoot+"/ctxcomm/ksp", fixtureRoot+"/ctxcomm/service",
		fixtureRoot+"/ctxcomm/outofscope")
}

func TestBufOwnFixture(t *testing.T) {
	runFixture(t, "bufown", fixtureRoot+"/bufown/staging")
}

func TestSpmdDetFixture(t *testing.T) {
	runFixture(t, "spmddet", fixtureRoot+"/spmddet", fixtureRoot+"/spmddet/ksp")
}

// TestMalformedSuppression: ignores without a reason or naming an unknown
// analyzer are themselves findings.
func TestMalformedSuppression(t *testing.T) {
	loader, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(fixtureRoot + "/ignoremalformed")
	if err != nil {
		t.Fatal(err)
	}
	diags := analysis.Run(analysis.Analyzers(), pkgs)
	var msgs []string
	for _, d := range diags {
		if d.Analyzer != "lisi-vet" {
			t.Errorf("unexpected analyzer %q in %s", d.Analyzer, d.String())
		}
		msgs = append(msgs, d.Message)
	}
	if len(msgs) != 2 ||
		!strings.Contains(msgs[0], "malformed suppression") ||
		!strings.Contains(msgs[1], "unknown analyzer nosuchanalyzer") {
		t.Fatalf("want one malformed and one unknown-analyzer finding, got %q", msgs)
	}
}

// TestIgnoreAudit: a suppression that silenced nothing in a run of its
// analyzer is a finding of that run; the one in active use is not, and
// neither is the finding it silences.
func TestIgnoreAudit(t *testing.T) {
	loader, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(fixtureRoot + "/ignorestale")
	if err != nil {
		t.Fatal(err)
	}
	diags := analysis.Run(analysis.Analyzers(), pkgs)
	if len(diags) != 1 || diags[0].Analyzer != "lisi-vet" ||
		!strings.Contains(diags[0].Message, "stale suppression: no spmddet diagnostic fires") {
		t.Fatalf("want exactly the stale spmddet suppression, got %v", diags)
	}
	if diags := analysis.Run(nil, pkgs); len(diags) != 0 {
		t.Errorf("a run without spmddet reported its suppressions: %v", diags)
	}
}

// TestDeterministicOrder: two runs over the same inputs print identically,
// and the order is the documented file/line/column/analyzer sort.
func TestDeterministicOrder(t *testing.T) {
	loader, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(fixtureRoot+"/portcontract", fixtureRoot+"/ctxcomm/ksp",
		fixtureRoot+"/spmddet")
	if err != nil {
		t.Fatal(err)
	}
	first := analysis.Run(analysis.Analyzers(), pkgs)
	second := analysis.Run(analysis.Analyzers(), pkgs)
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("two runs differ:\n%v\nvs\n%v", first, second)
	}
	if len(first) == 0 {
		t.Fatal("expected findings from the fixtures")
	}
	before := func(a, b analysis.Diagnostic) bool {
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
	}
	if !sort.SliceIsSorted(first, func(i, j int) bool { return before(first[i], first[j]) }) {
		var lines []string
		for _, d := range first {
			lines = append(lines, d.String())
		}
		t.Fatalf("output not in file/line/column/analyzer order:\n%s", strings.Join(lines, "\n"))
	}
}

// TestRepoClean asserts the shipping tree holds zero findings, stale
// suppressions included — the lisi-vet gate of every `go test ./...`.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide type-check is slow; go test without -short runs it")
	}
	loader, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load("internal/...", "cmd/...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range analysis.Run(analysis.Analyzers(), pkgs) {
		t.Errorf("%s", d.String())
	}
}
