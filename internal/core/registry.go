package core

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/cca"
)

// Factory constructs a fresh, unconfigured solver component.
type Factory func() SparseSolver

// BackendInfo describes one registered solver backend. Name is the
// user-facing selection string (the -solver flag of the cmds, the paper's
// Figure 4 "swap the provider by name" knob); Class is the CCA class the
// backend is also registered under, so framework-assembled applications
// and registry-opened sessions construct the identical component.
type BackendInfo struct {
	Name  string // registry key, e.g. "petsc"
	Class string // CCA class name, e.g. "lisi.solver.ksp"
	Kind  string // solver family, e.g. "iterative (Krylov)"
	Doc   string // one-line description (rendered into the README table)

	// Params is the backend's declared vocabulary (§6.5), the one its
	// Set validates against (rendered into docs/SPEC.md §7).
	Params []Param
}

type regEntry struct {
	info    BackendInfo
	factory Factory
}

var registry = struct {
	mu sync.Mutex
	m  map[string]regEntry
}{m: make(map[string]regEntry)}

// Register adds a solver backend under info.Name and, when info.Class is
// set, also registers the same factory as a CCA component class, keeping
// the string-selected and framework-assembled paths in lockstep. It
// panics on a missing name, nil factory or duplicate registration —
// registration happens from package init functions, where a panic is the
// conventional fail-fast.
func Register(info BackendInfo, f Factory) {
	if info.Name == "" || f == nil {
		panic("core: Register requires a backend name and a factory")
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if _, dup := registry.m[info.Name]; dup {
		panic(fmt.Sprintf("core: backend %q registered twice", info.Name))
	}
	registry.m[info.Name] = regEntry{info: info, factory: f}
	if info.Class != "" {
		cca.RegisterClass(info.Class, func() cca.Component {
			comp, ok := f().(cca.Component)
			if !ok {
				panic(fmt.Sprintf("core: backend %q factory product is not a cca.Component", info.Name))
			}
			return comp
		})
	}
}

// Open constructs a fresh component of the named backend. Unknown names
// return an error listing every registered backend, so a typo in a
// -solver flag is self-explanatory.
func Open(name string) (SparseSolver, error) {
	registry.mu.Lock()
	e, ok := registry.m[name]
	registry.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("core: unknown solver backend %q (registered: %s)",
			name, strings.Join(Names(), ", "))
	}
	return e.factory(), nil
}

// Lookup returns the descriptor of a registered backend.
func Lookup(name string) (BackendInfo, bool) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	e, ok := registry.m[name]
	return e.info, ok
}

// Names returns the registered backend names in sorted order.
func Names() []string {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	return sortedKeys(registry.m)
}

// Backends returns the descriptors of every registered backend, ordered
// by name.
func Backends() []BackendInfo {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	infos := make([]BackendInfo, 0, len(registry.m))
	for _, e := range registry.m {
		infos = append(infos, e.info)
	}
	sort.Slice(infos, func(i, j int) bool { return infos[i].Name < infos[j].Name })
	return infos
}

// BackendTableMarkdown renders the registered backends as the Markdown
// table embedded in the README between the `<!-- backends:begin -->` /
// `<!-- backends:end -->` markers; a test keeps the README in sync.
func BackendTableMarkdown() string {
	var b strings.Builder
	b.WriteString("| backend | CCA class | kind | description |\n")
	b.WriteString("|---------|-----------|------|-------------|\n")
	for _, info := range Backends() {
		fmt.Fprintf(&b, "| `%s` | `%s` | %s | %s |\n", info.Name, info.Class, info.Kind, info.Doc)
	}
	return b.String()
}
