package core

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// ParamKind is how a parameter value parses.
type ParamKind uint8

const (
	ParamEnum    ParamKind = iota // one of the declared names
	ParamInt                      // strconv.Atoi, inside the bounds
	ParamFloat                    // strconv.ParseFloat, finite, inside the bounds
	ParamBool                     // strconv.ParseBool
	ParamIgnored                  // any value: stored and reported, never read
)

// Bounds limit an int or float value; ±Inf is no bound, and an open
// bound refuses the bound itself.
type Bounds struct {
	Min, Max         float64
	MinOpen, MaxOpen bool
}

var (
	positive = Bounds{Min: 0, Max: math.Inf(1), MinOpen: true}
	nonNeg   = Bounds{Min: 0, Max: math.Inf(1)}
	atLeast1 = Bounds{Min: 1, Max: math.Inf(1)}
)

// effect is what a change of a key costs a built backend: reconfigure
// runs configure at the next Solve; rebuild also drops what is built on
// the operator when the value changes it; none builds nothing from it.
type effect uint8

const (
	reconfigure effect = iota
	rebuild
	noEffect
)

func (e effect) String() string { return [...]string{"reconfigure", "rebuild", "none"}[e] }

// Param declares one key of a component's vocabulary (§6.5), once:
// Set validates against it, the component's configure hook applies it,
// getAll and the session's failover walk read it, and
// ParamTableMarkdown renders it into docs/SPEC.md §7.
type Param struct {
	Key    string
	Kind   ParamKind
	Bounds          // an int or float key's accepted range
	Names  []string // an enum key's accepted names, aliases included
	Doc    string   // one line

	vals   []int    // the backend value of each of Names (aztec, superlu)
	opts   []string // ksp's option value for each of Names
	effect effect   // what a change costs a built backend
	// to names the target: ksp's option (configure sets it), the AZ_*
	// slot, the slu.Options / mg.Options field; "" for none.
	to  string
	az  int                           // trilinos: the AZ_* option slot, or param slot of a float key
	slu func(*SLUComponent, paramVal) // superlu: writes the target
	mg  func(*MGComponent, paramVal)  // mg: writes the target
}

// paramVal is a value as its key parsed it.
type paramVal struct {
	s string  // as given, or an enum's ksp option value
	i int     // an int, a bool as 0/1, an enum's backend value
	f float64 // a float
}

// workersParam is the key every backend shares: the intra-rank worker
// pool, handed over at every Solve, so nothing is built from it.
var workersParam = Param{Key: "workers", Kind: ParamInt, Bounds: atLeast1, effect: noEffect,
	Doc: "intra-rank worker-pool size (SpMV, reductions; no triangular sweep)"}

// parse reads value as the key's kind; ok is false for a value the key
// refuses.
func (p *Param) parse(value string) (v paramVal, ok bool) {
	v.s = value
	var err error
	switch p.Kind {
	case ParamEnum:
		for i, n := range p.Names {
			if n == value {
				if p.vals != nil {
					v.i = p.vals[i]
				}
				if p.opts != nil {
					v.s = p.opts[i]
				}
				return v, true
			}
		}
		return v, false
	case ParamInt:
		v.i, err = strconv.Atoi(value)
		return v, err == nil && p.in(float64(v.i))
	case ParamFloat:
		v.f, err = strconv.ParseFloat(value, 64)
		return v, err == nil && finite(v.f) && p.in(v.f)
	case ParamBool:
		b, err := strconv.ParseBool(value)
		if b {
			v.i = 1
		}
		return v, err == nil
	}
	return v, true
}

func (b Bounds) in(v float64) bool {
	return (v > b.Min || !b.MinOpen && v == b.Min) && (v < b.Max || !b.MaxOpen && v == b.Max)
}

// validate finds key's row in ps and parses value by it: ErrUnknownKey
// (and a nil row) for a key ps does not declare, ErrBadArg for a value
// the row refuses.
func validate(ps []Param, key, value string) (*Param, int) {
	for i := range ps {
		if p := &ps[i]; p.Key == key {
			if _, ok := p.parse(value); !ok {
				return p, ErrBadArg
			}
			return p, OK
		}
	}
	return nil, ErrUnknownKey
}

// setParams applies params to s in sorted key order, the same on every
// rank. Given a vocabulary — a failover replacement's — it skips a key
// or value outside it, which keeps the replacement's default; any other
// refusal is the error.
func setParams(s SparseSolver, params map[string]string, skipOutside []Param) error {
	for _, k := range sortedKeys(params) {
		v := params[k]
		if _, code := validate(skipOutside, k, v); skipOutside != nil && code != OK {
			continue
		}
		if code := s.Set(k, v); code != OK {
			return fmt.Errorf("set %s=%s: %w", k, v, Check(code))
		}
	}
	return nil
}

// sortedKeys returns m's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// accepts renders the values a key takes, for the SPEC.md table.
func (p *Param) accepts() string {
	switch p.Kind {
	case ParamEnum:
		var groups []string
		for i, n := range p.Names {
			if n == "" {
				n = `""`
			}
			if p.vals != nil && i > 0 && p.vals[i] == p.vals[i-1] {
				groups[len(groups)-1] += "/`" + n + "`"
			} else {
				groups = append(groups, "`"+n+"`")
			}
		}
		return strings.Join(groups, ", ")
	case ParamInt, ParamFloat:
		kind := map[bool]string{false: "int", true: "float"}[p.Kind == ParamFloat]
		lo, hi := "[", "]"
		if p.MinOpen || math.IsInf(p.Min, -1) {
			lo = "("
		}
		if p.MaxOpen || math.IsInf(p.Max, 1) {
			hi = ")"
		}
		return fmt.Sprintf("%s in %s%g, %g%s", kind, lo, p.Min, p.Max, hi)
	case ParamBool:
		return "bool"
	}
	return "anything (ignored)"
}

// ParamTableMarkdown renders every registered backend's declared
// vocabulary as the Markdown table embedded in docs/SPEC.md §7 between
// the `<!-- params:begin -->` / `<!-- params:end -->` markers; a test
// keeps the document in sync.
func ParamTableMarkdown() string {
	var sb strings.Builder
	sb.WriteString("| backend | key | accepts | sets | a change | meaning |\n")
	sb.WriteString("|---------|-----|---------|------|----------|---------|\n")
	for _, info := range Backends() {
		for _, p := range info.Params {
			to := "—"
			if p.to != "" {
				to = "`" + p.to + "`"
			}
			fmt.Fprintf(&sb, "| `%s` | `%s` | %s | %s | %s | %s |\n",
				info.Name, p.Key, p.accepts(), to, p.effect, p.Doc)
		}
	}
	return sb.String()
}
