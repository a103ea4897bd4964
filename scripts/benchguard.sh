#!/usr/bin/env bash
# benchguard.sh — guard what the key micro-benchmarks allocate.
#
#   scripts/benchguard.sh            # compare against BENCH_BASELINE.json
#   scripts/benchguard.sh --update   # re-measure and rewrite the baseline
#
# Every guarded benchmark has one "<name>::allocs" baseline key gating
# its allocs/op. Allocation counts are deterministic and mean the same on
# every machine, so the allowance is tight — max(base·1.25, base+2) —
# which holds the zero-allocation steady-state benchmarks
# (BenchmarkApplyAllocs, BenchmarkSolveSteadyState, …) at zero. What the
# benchmarks take in wall clock is not gated here: a checked-in ns/op is
# one machine's, and time is the end-to-end benchmark's business
# (benchmark/, scripts/benchpairs.sh). A baseline key that was not
# measured, or a guarded package that produced no result, fails the run.
set -euo pipefail

cd "$(dirname "$0")/.."

# BENCH_BASELINE overrides the baseline path (used by self-tests).
BASELINE="${BENCH_BASELINE:-BENCH_BASELINE.json}"
BENCHTIME="${BENCH_TIME:-0.2s}"
COUNT="${BENCH_COUNT:-3}"

# Guarded benchmarks: package + regex.
PKGS=(
  "./internal/sparse"
  "./internal/telemetry"
  "./internal/core"
  "./internal/pmat"
  "./internal/service"
  "./internal/slu"
  "./internal/mesh"
  "./internal/aztec"
  "./internal/comm"
  "./internal/jsonw"
)
PATTERN='^(BenchmarkCOOToCSR|BenchmarkTranspose|BenchmarkMSRConversion|BenchmarkSpMVFormats|BenchmarkNilRecorderAdd|BenchmarkNilRecorderStartPhase|BenchmarkRecorderAdd|BenchmarkRecorderResidual|BenchmarkSessionReuseSolve|BenchmarkSolveSteadyState|BenchmarkApplyAllocs|BenchmarkOrthogonalize|BenchmarkServiceSolveReuse|BenchmarkServiceWire|BenchmarkJSONFloat|BenchmarkTriSolveWorkers|BenchmarkFEMAssembly|BenchmarkRefactorSamePattern|BenchmarkRefactorPivotsMove|BenchmarkOrderingAlgorithms|BenchmarkILUT|BenchmarkBarrier|BenchmarkAllReduceFloat64|BenchmarkPingPong)$'

OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT

for pkg in "${PKGS[@]}"; do
  go test -run='^$' -bench="$PATTERN" -benchmem -benchtime="$BENCHTIME" -count="$COUNT" "$pkg"
done >"$OUT"

python3 - "$OUT" "$BASELINE" "${1:-}" "${PKGS[@]}" <<'PY'
import json, re, sys

out_path, baseline_path, mode = sys.argv[1:4]
pkgs = sys.argv[4:]

# Collect the minimum allocs/op per benchmark over the repetitions (with
# -benchmem the column follows ns/op and any b.ReportMetric columns,
# which are skipped), under a "<name>::allocs" key. Track which package
# produced each result ("pkg:" headers in `go test` output) so a guarded
# package that silently stops producing benchmarks is an error, not a
# pass.
results = {}
per_pkg = {}
cur_pkg = None
line_re = re.compile(
    r"^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+[\d.]+ ns/op"
    r"(?:\s+[\d.e+-]+ \S+)*?\s+[\d.]+ B/op\s+(\d+) allocs/op")
pkg_re = re.compile(r"^pkg:\s+(\S+)$")
for line in open(out_path):
    pm = pkg_re.match(line)
    if pm:
        cur_pkg = pm.group(1)
        per_pkg.setdefault(cur_pkg, 0)
        continue
    m = line_re.match(line)
    if m:
        key = m.group(1) + "::allocs"
        results[key] = min(float(m.group(2)), results.get(key, float("inf")))
        if cur_pkg is not None:
            per_pkg[cur_pkg] += 1

if not results:
    sys.exit("benchguard: FAIL - no benchmark results parsed; did the bench "
             "pattern stop matching anything?")

def require_results(expected):
    """Every expected package must have produced at least one result."""
    for pkg in expected:
        suffix = pkg.lstrip("./")
        matched = [p for p in per_pkg if p.endswith(suffix)]
        if not matched or all(per_pkg[p] == 0 for p in matched):
            sys.exit(f"benchguard: FAIL - guarded package {pkg} produced no "
                     "benchmark results; its benchmarks were renamed, removed, "
                     "or the package is missing from PKGS. Update PKGS/PATTERN "
                     "in scripts/benchguard.sh and refresh the baseline with "
                     "--update.")

if mode == "--update":
    require_results(pkgs)
    # Record the guarded package list alongside the numbers so a later
    # check run knows which packages MUST produce results even if the
    # script's PKGS array and the checked-in baseline have drifted apart.
    payload = dict(sorted(results.items()))
    payload["__packages__"] = sorted(pkgs)
    with open(baseline_path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"benchguard: baseline rewritten with {len(results)} entries")
    sys.exit(0)

try:
    baseline = json.load(open(baseline_path))
except FileNotFoundError:
    sys.exit(f"benchguard: {baseline_path} missing; run with --update first")

# The expected package set is the union of the script's PKGS and the
# baseline's recorded "__packages__": a package present in the baseline
# but dropped from PKGS (or vice versa) silently producing no results
# must fail, not pass. The key itself carries no numbers and is excluded
# from the per-benchmark comparison below.
require_results(sorted(set(pkgs) | set(baseline.pop("__packages__", []))))

failed = False
missing = []
for name, base in sorted(baseline.items()):
    if name not in results:
        print(f"MISSING  {name}: in baseline but not measured")
        missing.append(name)
        failed = True
        continue
    now = results[name]
    # Allow the relative margin or a flat +2 allocs, whichever is larger
    # (a zero baseline therefore admits at most 2 stray allocations).
    allowed = max(base * 1.25, base + 2)
    status = "ok"
    if now > allowed:
        status = "REGRESSED"
        failed = True
    print(f"{status:9s} {name}: {base:.0f} -> {now:.0f} allocs/op "
          f"(allowed {allowed:.0f})")
for name in sorted(set(results) - set(baseline)):
    print(f"NEW      {name}: {results[name]:.0f} allocs/op (not in baseline)")

if missing:
    print(f"benchguard: FAIL - {len(missing)} baseline benchmark(s) never ran: "
          + ", ".join(missing)
          + ". A skipped benchmark must not pass the gate: restore it, or "
          "deliberately retire it via --update.", file=sys.stderr)

sys.exit(1 if failed else 0)
PY
