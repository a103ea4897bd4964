#!/usr/bin/env bash
# usage.sh — the usage record (ROADMAP item 13): which functions under
# internal/ does no door reach?
#
#   scripts/usage.sh        # or: make usage
#
# A door is the LISI port, core.Session, a service request, a cmd/ flag,
# an examples/ program or a BENCHMARK.json workload or probe. The record
# is the merged coverage of
#   - the upper-layer tests (integration, bench, core, service, chaos,
#     cca) with -coverpkg=./internal/... — each lower package's own unit
#     tests are left out on purpose: a function only its own test calls
#     is not reached — plus the service's faultinject-tagged chaos tests;
#   - every examples/ program, lisi-demo, meshgen -verify, lisi-solve on
#     the files meshgen wrote (once under -fault-spec, once serving
#     -expvar until interrupted), lisi-bench (paper run, -telemetry,
#     -sweep, -fault-spec);
#   - the benchmark, --quick, plain and --trace 1, all four workloads.
# It prints every function under internal/ none of whose statements was
# executed, with its line count (doc comment through closing brace), and
# a per-package total.
# Informational: exit status is nonzero only when a step of the smoke
# list itself fails. Everything is written under a temp dir.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
bin="$tmp/bin" cov="$tmp/cov"
mkdir -p "$bin" "$cov" "$tmp/mesh" "$tmp/benchout"

echo "usage: upper-layer tests" >&2
go test -count=1 -cover -coverpkg=./internal/... \
  ./internal/integration ./internal/bench ./internal/core ./internal/service ./internal/chaos ./internal/cca \
  -args -test.gocoverdir="$cov" >&2
go test -count=1 -cover -coverpkg=./internal/... -tags faultinject \
  -run 'TestServiceChaosTypedStatuses|TestServiceServerLevelFaultSpec|TestServiceFaultSpecHTTP' ./internal/service \
  -args -test.gocoverdir="$cov" >&2

echo "usage: building instrumented binaries" >&2
# The main package must be inside -coverpkg or no counters are written.
go build -cover -coverpkg=./... -o "$bin/" ./examples/... ./cmd/lisi-demo ./cmd/lisi-solve ./cmd/lisi-bench ./cmd/meshgen
(cd benchmark && go build -cover -coverpkg=./...,repro/... -o "$bin/benchmark" .)

export GOCOVERDIR="$cov"
smoke() { echo "usage: $*" >&2; "$@" >/dev/null; }
for ex in autoselect matrixfree multigrid multirhs quickstart solverswap; do
  smoke "$bin/$ex"
done
smoke "$bin/lisi-demo" -procs 2 -grid 20
smoke "$bin/lisi-demo" -procs 2 -grid 20 -script examples/figure4.cca
smoke "$bin/lisi-demo" -backends
smoke "$bin/meshgen" -n 20 -procs 1 -dir "$tmp/mesh" -verify
for solver in petsc trilinos superlu; do
  smoke "$bin/lisi-solve" -matrix "$tmp/mesh/matrix.0" -rhs "$tmp/mesh/rhs.0" -solver "$solver" \
    -procs 2 -telemetry "$tmp/solve.json" -out "$tmp/x.txt"
done
delays='seed=7,pdelay=0.2,maxdelay=200us'
smoke "$bin/lisi-solve" -matrix "$tmp/mesh/matrix.0" -rhs "$tmp/mesh/rhs.0" -fault-spec "$delays"
# -expvar serves until interrupted (the counters are written on the way
# out); one poll of the endpoint in between.
expvar=127.0.0.1:18417
smoke timeout --preserve-status -s INT 3 "$bin/lisi-solve" -matrix "$tmp/mesh/matrix.0" -rhs "$tmp/mesh/rhs.0" \
  -telemetry "$tmp/solve.json" -expvar "$expvar" &
smoke python3 -c "
import time, urllib.request
for _ in range(50):
    try:
        urllib.request.urlopen('http://$expvar/debug/vars').read()
        break
    except OSError:
        time.sleep(0.05)"
wait $!
smoke "$bin/lisi-bench" -quick -runs 1
smoke "$bin/lisi-bench" -quick -runs 1 -experiment table1 -fault-spec "$delays"
smoke "$bin/lisi-bench" -telemetry "$tmp/telemetry.json" -runs 1 -grid 40
smoke "$bin/lisi-bench" -sweep -corpus testdata/corpus -sweep-out "$tmp/sweep.json" -sweep-md "$tmp/sweep.md"
smoke "$bin/benchmark" --quick --out "$tmp/benchout"
smoke "$bin/benchmark" --quick --trace 1 --out "$tmp/benchout"
unset GOCOVERDIR

# `go tool cover` resolves file names in this module only.
go tool covdata textfmt -i="$cov" -o "$tmp/all.cov"
grep -v '^repro/benchmark/' "$tmp/all.cov" >"$tmp/profile.cov"
go tool cover -func="$tmp/profile.cov" >"$tmp/func.txt"

python3 - "$tmp/func.txt" "$tmp/profile.cov" <<'PY'
import collections, glob, re, sys

# Lines that start a counted block: a function with none (an empty body)
# reads 0 % however often it runs, and is left out.
counted = collections.defaultdict(set)
for line in open(sys.argv[2]):
    m = re.match(r"^repro/(.+):(\d+)\.\d+,\S+ (\d+) ", line)
    if m and int(m.group(3)) > 0:
        counted[m.group(1)].add(int(m.group(2)))

# A function's lines are its doc comment plus the declaration through the
# closing brace (gofmt puts that brace alone at column 0); 0 for a
# function without a counted statement.
def extent(path, src, start):
    first = start - 1
    while first > 0 and src[first - 1].startswith("//"):
        first -= 1
    last = start - 1
    if not src[last].endswith("}"):
        while src[last] != "}":
            last += 1
    if not any(start <= n <= last + 1 for n in counted[path]):
        return 0
    return last - first + 1

unreached = collections.defaultdict(list)  # package -> (file, line, name, lines)
func_re = re.compile(r"^repro/(internal/.+):(\d+):\s+(\S+)\s+0\.0%$")
sources = {}
for line in open(sys.argv[1]):
    m = func_re.match(line)
    if m:
        path, start, name = m.group(1), int(m.group(2)), m.group(3)
        if path not in sources:
            sources[path] = open(path).read().split("\n")
        n = extent(path, sources[path], start)
        if n:
            unreached[path.rsplit("/", 1)[0]].append((path, start, name, n))

for pkg in sorted(unreached):
    for path, start, name, n in sorted(unreached[pkg]):
        print(f"{path}:{start}\t{name}\t{n}")
print()
print("package\tunreached funcs\tunreached lines\tnon-test lines")
funcs = lines = total = 0
for pkg in sorted(glob.glob("internal/*")):
    size = sum(len(open(f).readlines()) for f in glob.glob(pkg + "/*.go") if not f.endswith("_test.go"))
    n = sum(u[3] for u in unreached[pkg])
    print(f"{pkg}\t{len(unreached[pkg])}\t{n}\t{size}")
    funcs, lines, total = funcs + len(unreached[pkg]), lines + n, total + size
print(f"total\t{funcs}\t{lines}\t{total}")
PY
