#!/usr/bin/env python3
"""Self-test of the benchmark: tiny-scale runs of every workload.

    python3 perfbench/tests/selftest.py [--binary path/to/cknn_perfbench]

Without --binary it builds the driver through perfbench/run.py first. It
checks that

  * every metric is emitted with its unit: the end-to-end and per-layer
    metrics of BENCHMARK.json on the gated workloads, and the serving
    metrics (README.md) on serve_mixed;
  * the referee passes, and catches a deliberately perturbed result;
  * serve_mixed's front end rejected exactly the injected invalid updates;
  * the same seed reproduces every count exactly, and a different seed
    changes the inputs.

Exits 0 when every check passes.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH_DIR)

SERVE_E2E = {
    "setup_s": "s", "cpu_us_per_update": "us", "monitor_mb": "MB",
    "serve_ack_p50_ms": "ms", "serve_ack_tail_ms": "ms",
    "serve_visible_p50_ms": "ms", "serve_visible_tail_ms": "ms",
    "serve_read_p50_ms": "ms", "serve_read_tail_ms": "ms",
}
# Counts that depend on how the front end happened to cut its windows in
# real time (serve_mixed only); everything else must repeat exactly.
TIMING_DEPENDENT_COUNTS = {
    "front_end.ticks", "front_end.updates_per_tick",
    "front_end.queue_depth_max", "server.updates_in", "server.updates_out",
    "server.fold_ratio",
    "ima.updates_routed", "ima.updates_ignored", "ima.routed_share",
    "ima.updates_routed_max_shard", "ima.full_recomputes", "ima.reroots",
    "ima.rebuilds", "knn_search.nodes_settled", "knn_search.heap_pushes",
    "knn_search.objects_offered",
}

failures = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        failures.append(what)


def run_driver(binary, out_dir, workload, seed, trace, *extra):
    args = [binary, "--workload", workload, "--seed", str(seed),
            "--seconds", "2", "--trace", str(trace), "--scale", "tiny",
            "--out-dir", out_dir]
    if workload != "serve_mixed":
        args += ["--batches", "6"]
    args += list(extra)
    proc = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    digest = re.search(r"input_digest ([0-9a-f]+)", proc.stdout).group(1)
    return result, digest, proc.stdout


def expected_metrics(spec, workload, trace):
    if trace:
        return {m["name"]: m["unit"] for m in spec["per_layer"]}
    if workload == "serve_mixed":
        return SERVE_E2E
    return {m["name"]: m["unit"] for m in spec["end_to_end"]}


# Ratios of two times; every other count or ratio is derived from counts.
TIME_RATIOS = {"server.submit_share", "sharding.efficiency"}


def counts(result):
    return {k: m["value"] for k, m in result["metrics"].items()
            if m["unit"] in ("count", "ratio") and k not in TIME_RATIOS}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--binary")
    args = parser.parse_args()
    binary = args.binary
    if binary is None:
        sys.path.insert(0, BENCH_DIR)
        import run as bench_run  # perfbench/run.py
        binary = bench_run.build()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]] + ["serve_mixed"]

    scratch = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as out_dir:
        for w in workloads:
            for trace in (0, 1):
                result, digest, stdout = run_driver(binary, out_dir, w, 7, trace)
                want = expected_metrics(spec, w, trace)
                got = {k: m["unit"] for k, m in result["metrics"].items()}
                check(got == want,
                      f"{w} trace={trace}: every metric emitted with its unit"
                      + ("" if got == want else
                         f" (missing {sorted(set(want) - set(got))}, "
                         f"extra {sorted(set(got) - set(want))}, "
                         f"units {[k for k in want if k in got and got[k] != want[k]]})"))
                check(result["correct"] and result["failed"] == 0
                      and result["attempted"] > 0,
                      f"{w} trace={trace}: correct, nothing failed")
                if trace:
                    m = result["metrics"]
                    check(m["referee.checked"]["value"] > 0
                          and m["referee.mismatches"]["value"] == 0,
                          f"{w}: referee checked queries, no mismatch")
                    trace_file = os.path.join(out_dir, f"trace-{w}-seed7.json")
                    with open(trace_file) as f:
                        events = json.load(f)["traceEvents"]
                    check(len(events) > 0, f"{w}: Chrome trace written")
                    if w == "serve_mixed":
                        injected = int(re.search(r"(\d+) invalid\)",
                                                 stdout).group(1))
                        check(injected > 0 and
                              m["front_end.rejected_invalid"]["value"]
                              == injected,
                              f"{w}: rejected_invalid == injected ({injected})")
                    # Reproducibility: same seed, same counts and inputs.
                    again, digest2, _ = run_driver(binary, out_dir, w, 7, 1)
                    a, b = counts(result), counts(again)
                    if w == "serve_mixed":
                        for k in TIMING_DEPENDENT_COUNTS:
                            a.pop(k, None)
                            b.pop(k, None)
                    check(digest == digest2 and a == b and
                          result["attempted"] == again["attempted"],
                          f"{w}: same seed reproduces inputs and counts"
                          + ("" if a == b else
                             f" (differ: {[k for k in a if a[k] != b.get(k)]})"))
                    _, digest3, _ = run_driver(binary, out_dir, w, 8, 0)
                    check(digest3 != digest,
                          f"{w}: a different seed changes the inputs")
            perturbed, _, _ = run_driver(binary, out_dir, w, 7, 0, "--perturb", "1")
            check(not perturbed["correct"] and perturbed["failed"] >= 1,
                  f"{w}: the referee catches a perturbed result")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
