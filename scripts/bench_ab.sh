#!/usr/bin/env bash
# Same-session A/B of two revisions on the repository benchmark
# (perfbench/run.py). Each revision is exported with `git archive` into
# its own directory and built there from source, exactly as the benchmark
# builds a checkout. The runs then alternate A, B / B, A over N pairs, one
# seed per pair shared by both sides, and the script prints, per workload
# and end-to-end metric, each side's median and interquartile range, the
# B/A ratio of the medians, and in how many pairs B beat A. Every run
# lasts the `run_seconds` that B's BENCHMARK.json sets.
#
#   scripts/bench_ab.sh HEAD~1 HEAD
#   BENCH_AB_PAIRS=12 scripts/bench_ab.sh main my-branch
#
# To measure uncommitted work, stage it and pass a stash commit:
#   git add -A && scripts/bench_ab.sh HEAD "$(git stash create)"
#
# Knobs (environment):
#   BENCH_AB_PAIRS      pairs of runs per workload (default 10)
#   BENCH_AB_WORKLOADS  comma-separated workloads (default paper_ima,fleet_gma)
#   BENCH_AB_SEED       seed of the first pair; pair i uses seed + i
#                       (default 101)
#   BENCH_AB_DIR        where the exported trees, their builds and the raw
#                       run outputs go (default ${TMPDIR:-/tmp}/cknn_bench_ab)
#
# Every run's result line is kept under BENCH_AB_DIR/runs/. A run that
# fails, reports failed operations or fails its referee is listed and the
# script exits 1 after the summary.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  sed -n '2,27p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//' >&2
  exit 2
fi

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
pairs="${BENCH_AB_PAIRS:-10}"
workloads="${BENCH_AB_WORKLOADS:-paper_ima,fleet_gma}"
seed0="${BENCH_AB_SEED:-101}"
work="${BENCH_AB_DIR:-${TMPDIR:-/tmp}/cknn_bench_ab}"

rev_a="$(git -C "${repo_root}" rev-parse --verify "$1^{commit}")"
rev_b="$(git -C "${repo_root}" rev-parse --verify "$2^{commit}")"
mkdir -p "${work}/runs"

# Exports a revision once; the directory name is the commit hash, so a
# later call with the same revision reuses its tree and build.
export_tree() {
  local rev="$1" dir="${work}/tree-$1"
  if [[ ! -f "${dir}/.exported" ]]; then
    rm -rf "${dir}"
    mkdir -p "${dir}"
    git -C "${repo_root}" archive "${rev}" | tar -x -C "${dir}"
    touch "${dir}/.exported"
  fi
  echo "${dir}"
}

tree_a="$(export_tree "${rev_a}")"
tree_b="$(export_tree "${rev_b}")"
echo "bench_ab: A = ${rev_a} (${1})" >&2
echo "bench_ab: B = ${rev_b} (${2})" >&2

exec python3 - "${tree_a}" "${tree_b}" "${work}/runs" "${pairs}" \
    "${workloads}" "${seed0}" <<'EOF'
import json
import os
import statistics
import subprocess
import sys

tree = {"A": sys.argv[1], "B": sys.argv[2]}
runs_dir = sys.argv[3]
pairs = int(sys.argv[4])
workloads = [w for w in sys.argv[5].split(",") if w]
seed0 = int(sys.argv[6])
with open(os.path.join(tree["B"], "BENCHMARK.json")) as f:
    spec = json.load(f)
seconds = int(spec["run_seconds"])


def run(side, workload, seed, secs):
    """One perfbench run of `side`; returns its result object or None."""
    cmd = ["python3", "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(secs), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree[side], stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    name = f"{workload}-{seed}-{side}.json"
    with open(os.path.join(runs_dir, name), "w") as f:
        f.write(lines[-1] + "\n")
    if proc.returncode != 0:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def better_lower(metric):
    """Direction of `metric` from the B tree's BENCHMARK.json."""
    for m in spec.get("end_to_end", []):
        if m["name"] == metric:
            return m.get("better", "lower") == "lower"
    return True


# Build both sides (and warm them) with a short run each.
for side in ("A", "B"):
    print(f"bench_ab: building {side} in {tree[side]}", file=sys.stderr,
          flush=True)
    if run(side, workloads[0], seed0 - 1, 1) is None:
        sys.exit(f"bench_ab: the warm-up run of {side} failed")

bad = []
for workload in workloads:
    values = {"A": {}, "B": {}}
    for i in range(pairs):
        seed = seed0 + i
        order = ("A", "B") if i % 2 == 0 else ("B", "A")
        for side in order:
            result = run(side, workload, seed, seconds)
            if (result is None or not result.get("correct")
                    or result.get("failed", 0) != 0):
                bad.append(f"{workload} seed {seed} {side}")
                continue
            for name, m in result["metrics"].items():
                values[side].setdefault(name, {})[seed] = m["value"]
        print(f"bench_ab: {workload} pair {i + 1}/{pairs} done",
              file=sys.stderr, flush=True)

    print(f"\n{workload}: {pairs} pairs x {seconds} s, seeds "
          f"{seed0}-{seed0 + pairs - 1}, order alternating")
    print(f"{'metric':<20} {'A median':>11} {'A IQR':>9} {'B median':>11} "
          f"{'B IQR':>9} {'B/A':>7} {'B wins':>7}")
    for name in values["A"]:
        a, b = values["A"][name], values["B"].get(name, {})
        common = sorted(set(a) & set(b))
        if not common:
            continue
        va, vb = [a[s] for s in common], [b[s] for s in common]
        ma, mb = statistics.median(va), statistics.median(vb)
        qa, qb = quartiles(va), quartiles(vb)
        lower = better_lower(name)
        wins = sum(1 for s in common if (b[s] < a[s]) == lower and b[s] != a[s])
        ratio = f"{mb / ma:.3f}" if ma else "n/a"
        print(f"{name:<20} {ma:>11.4g} {qa[1] - qa[0]:>9.3g} {mb:>11.4g} "
              f"{qb[1] - qb[0]:>9.3g} {ratio:>7} {wins:>4}/{len(common)}")

if bad:
    print("\nruns that failed, reported failures or failed the referee:")
    for b in bad:
        print(f"  {b}")
    sys.exit(1)
EOF
