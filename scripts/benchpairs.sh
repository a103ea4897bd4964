#!/usr/bin/env bash
# benchpairs.sh — the parent-vs-change comparison every perf PR needs
# (ROADMAP "How a claim is judged"): alternate the end-to-end benchmark
# between a parent commit and this working tree and report, per metric,
# both medians, the parent's quartile spread and how many pairs the
# change won.
#
#   scripts/benchpairs.sh <parent-ref> <workload> [pairs] [seconds]
#   make bench-pairs PARENT=HEAD~1 WORKLOAD=stencil-gmres PAIRS=10
#
# <parent-ref> is checked out into a throw-away `git worktree` (removed
# on exit); a directory that already holds a checkout of the parent is
# taken as it is, for hosts where a worktree cannot be made. Each side
# builds the benchmark from its own sources (benchmark/run.sh); which
# side runs first alternates from pair to pair. pairs defaults to 3 (a
# must-not-move check), seconds to the benchmark's own run length; a
# headline claim wants 10 pairs. Raw result lines are kept in
# $BENCHPAIRS_LOG when set.
set -euo pipefail

if [ $# -lt 2 ]; then
  sed -n '2,18p' "$0" >&2
  exit 2
fi
parent="$1" workload="$2" pairs="${3:-3}" seconds="${4:-}"

root="$(cd "$(dirname "$0")/.." && pwd)"
log="${BENCHPAIRS_LOG:-$(mktemp)}"
: >"$log"

worktree=""
cleanup() {
  [ -z "$worktree" ] || git -C "$root" worktree remove --force "$worktree"
  [ -n "${BENCHPAIRS_LOG:-}" ] || rm -f "$log"
}
trap cleanup EXIT
if [ -d "$parent" ]; then
  pdir="$(cd "$parent" && pwd)"
else
  worktree="$(mktemp -d)"
  git -C "$root" worktree add --detach --quiet "$worktree" "$parent"
  pdir="$worktree"
fi

run() { # side dir
  local args=(--workload "$workload")
  [ -n "$seconds" ] && args+=(--seconds "$seconds")
  # The benchmark's last stdout line is its JSON result.
  local result
  result="$(cd "$2" && bash benchmark/run.sh "${args[@]}" 2>/dev/null | tail -n 1)"
  echo "$1 $result" >>"$log"
  echo "  $1 done" >&2
}

for ((i = 1; i <= pairs; i++)); do
  echo "pair $i/$pairs" >&2
  if ((i % 2)); then
    run parent "$pdir"
    run change "$root"
  else
    run change "$root"
    run parent "$pdir"
  fi
done

python3 - "$log" "$root/BENCHMARK.json" "$workload" <<'PY'
import json, statistics, sys

log_path, spec_path, workload = sys.argv[1:4]
spec = {m["name"]: m for m in json.load(open(spec_path))["end_to_end"]}
runs = {"parent": [], "change": []}
for line in open(log_path):
    side, _, result = line.partition(" ")
    runs[side].append(json.loads(result))

def failed(side):
    return sum(r["failed"] for r in runs[side]), sum(r["attempted"] for r in runs[side])

pf, pa = failed("parent")
cf, ca = failed("change")
n = len(runs["parent"])
print(f"{workload}: {n} pairs; failed parent {pf}/{pa}, change {cf}/{ca}")
print(f"{'metric':16s} {'parent':>10s} {'change':>10s} {'change/parent':>13s} "
      f"{'parent q1..q3':>21s} {'wins':>6s}  verdict")
bad = pf < cf
for name, m in spec.items():
    p = [r["metrics"][name]["value"] for r in runs["parent"] if name in r["metrics"]]
    c = [r["metrics"][name]["value"] for r in runs["change"] if name in r["metrics"]]
    if len(p) != n or len(c) != n:
        continue
    pm, cm = statistics.median(p), statistics.median(c)
    q1, q3 = (min(p), max(p)) if n < 4 else statistics.quantiles(p, n=4, method="inclusive")[::2]
    lower = m["better"] == "lower"
    wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
    losses = sum((b > a) if lower else (b < a) for a, b in zip(p, c))
    worse = (cm / pm - 1) if lower else (pm / cm - 1) if cm else float("inf")
    gain = (pm - cm) if lower else (cm - pm)
    if worse > m["bound"]:
        verdict, bad = f"WORSE by {100 * worse:.1f}% (bound {100 * m['bound']:.0f}%)", True
    elif n >= 10 and wins >= 0.9 * (wins + losses) and gain > q3 - q1:
        verdict = "better"  # the claim rule: ten pairs, nine tenths won, past the parent's spread
    else:
        verdict = "inside bound"
    print(f"{name:16s} {pm:10.4g} {cm:10.4g} {cm / pm if pm else float('nan'):13.3f} "
          f"{q1:10.4g}..{q3:<9.4g} {wins:3d}/{n:<2d}  {verdict}")
sys.exit(1 if bad else 0)
PY
