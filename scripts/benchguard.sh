#!/usr/bin/env bash
# benchguard.sh — guard key micro-benchmarks against performance
# regressions.
#
#   scripts/benchguard.sh            # compare against BENCH_BASELINE.json
#   scripts/benchguard.sh --update   # re-measure and rewrite the baseline
#
# The guarded set is a handful of *stable* kernels (sparse format
# conversion, SpMV, telemetry hot path) rather than the full end-to-end
# solves, whose wall-clock is too noisy for CI gating. A run fails when
# any guarded benchmark regresses more than BENCH_THRESHOLD_PCT percent
# (default 25) over the checked-in baseline. Baselines are machine
# dependent: refresh with --update when the reference machine changes.
#
# Benchmarks run with -benchmem, and each guarded benchmark also gets a
# "<name>::allocs" baseline key gating its allocs/op: unlike ns/op,
# allocation counts are deterministic, so the allowance is tight —
# max(base·(1+threshold%), base+2) — which holds the zero-allocation
# steady-state benchmarks (BenchmarkApplyAllocs,
# BenchmarkSolveSteadyState) at zero.
set -euo pipefail

cd "$(dirname "$0")/.."

# BENCH_BASELINE overrides the baseline path (used by self-tests).
BASELINE="${BENCH_BASELINE:-BENCH_BASELINE.json}"
THRESHOLD="${BENCH_THRESHOLD_PCT:-25}"
BENCHTIME="${BENCH_TIME:-0.2s}"
COUNT="${BENCH_COUNT:-3}"

# Guarded benchmarks: package + regex, chosen for low run-to-run variance.
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
)
PATTERN='^(BenchmarkCOOToCSR|BenchmarkTranspose|BenchmarkMSRConversion|BenchmarkSpMVFormats|BenchmarkNilRecorderAdd|BenchmarkNilRecorderStartPhase|BenchmarkRecorderAdd|BenchmarkRecorderResidual|BenchmarkSessionReuseSolve|BenchmarkSolveSteadyState|BenchmarkApplyAllocs|BenchmarkServiceSolveReuse|BenchmarkApplyWorkers|BenchmarkTriSolveWorkers|BenchmarkFEMAssembly|BenchmarkReadMatrixMarket|BenchmarkMMIngestSetup|BenchmarkRefactorSamePattern|BenchmarkOrderingAlgorithms|BenchmarkILUT|BenchmarkBarrier|BenchmarkAllReduceFloat64|BenchmarkPingPong)$'
# Guarded on allocs/op alone: what these take in wall clock is the
# end-to-end benchmark's business (benchmark/: refresh_ms, slu.ordering_ms,
# aztec.ilut_build_ms), what they allocate is exact — a same-pattern
# refactor reuses all its storage, an ordering allocates a fixed handful
# of O(n)/O(nnz) slices, an ILUT build a fixed handful of O(n)/O(Σ budget)
# slices rather than one object per eliminated column; a barrier or an
# allreduce nothing at all however the ranks end up waiting for each other
# (polling or parked), a ping-pong its two payload copies per message.
ALLOCS_ONLY='^(BenchmarkRefactorSamePattern|BenchmarkOrderingAlgorithms|BenchmarkILUT|BenchmarkBarrier|BenchmarkAllReduceFloat64|BenchmarkPingPong)(/|$)'

OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT

for pkg in "${PKGS[@]}"; do
  go test -run='^$' -bench="$PATTERN" -benchmem -benchtime="$BENCHTIME" -count="$COUNT" "$pkg"
done >"$OUT"

python3 - "$OUT" "$BASELINE" "$THRESHOLD" "${1:-}" "$ALLOCS_ONLY" "${PKGS[@]}" <<'PY'
import json, re, sys

out_path, baseline_path, threshold, mode, allocs_only = sys.argv[1:6]
pkgs = sys.argv[6:]
threshold = float(threshold)
allocs_only_re = re.compile(allocs_only)

# Collect the best (minimum) ns/op per benchmark: minima are the most
# stable statistic for short benchmarks on shared machines. With
# -benchmem each line also carries allocs/op (after any b.ReportMetric
# columns, which are skipped), recorded under a separate "<name>::allocs"
# key. Track which package produced each result ("pkg:"
# headers in `go test` output) so a guarded package that silently stops
# producing benchmarks is an error, not a pass.
results = {}
per_pkg = {}
cur_pkg = None
line_re = re.compile(
    r"^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op"
    r"(?:(?:\s+[\d.e+-]+ \S+)*?\s+[\d.]+ B/op\s+(\d+) allocs/op)?")
pkg_re = re.compile(r"^pkg:\s+(\S+)$")
for line in open(out_path):
    pm = pkg_re.match(line)
    if pm:
        cur_pkg = pm.group(1)
        per_pkg.setdefault(cur_pkg, 0)
        continue
    m = line_re.match(line)
    if m:
        name, ns = m.group(1), float(m.group(2))
        if not allocs_only_re.match(name):
            results[name] = min(ns, results.get(name, float("inf")))
        if m.group(3) is not None:
            key = name + "::allocs"
            results[key] = min(float(m.group(3)), results.get(key, float("inf")))
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
    if name.endswith("::allocs"):
        # Allocation counts are deterministic; allow only the relative
        # threshold or a flat +2 allocs, whichever is larger (a zero
        # baseline therefore admits at most 2 stray allocations).
        allowed = max(base * (1 + threshold / 100.0), base + 2)
        status = "ok"
        if now > allowed:
            status = "REGRESSED"
            failed = True
        print(f"{status:9s} {name}: {base:.0f} -> {now:.0f} allocs/op "
              f"(allowed {allowed:.0f})")
        continue
    delta = 100.0 * (now - base) / base if base else 0.0
    status = "ok"
    if delta > threshold:
        status = "REGRESSED"
        failed = True
    print(f"{status:9s} {name}: {base:.1f} -> {now:.1f} ns/op ({delta:+.1f}%)")
for name in sorted(set(results) - set(baseline)):
    unit = "allocs/op" if name.endswith("::allocs") else "ns/op"
    print(f"NEW      {name}: {results[name]:.1f} {unit} (not in baseline)")

if missing:
    print(f"benchguard: FAIL - {len(missing)} baseline benchmark(s) never ran: "
          + ", ".join(missing)
          + ". A skipped benchmark must not pass the gate: restore it, or "
          "deliberately retire it via --update.", file=sys.stderr)

sys.exit(1 if failed else 0)
PY
