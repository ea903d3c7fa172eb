#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds the
cknn library and the driver binary from source under .bench_build/; later
runs only re-check the build. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Traced runs also
print the tracing overhead against the last untraced run of the same
workload, seed and length with the same driver binary. Extra arguments
(--scale, --batches, --perturb) are passed to the driver binary unchanged.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "cknn_perfbench")
RUN_TIMEOUT_S = 170
INVALID_RUN_EXIT = 3  # The driver's "load generator fell behind" exit code.
RETRIES = 2


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the driver; returns the binary path."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            raise RuntimeError(f"no {needed} at {ROOT}: not a cknn checkout")
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    return BINARY


def last_untraced_path(workload):
    return os.path.join(BUILD_DIR, f"last-untraced-{workload}.json")


def run_key(args, binary):
    """What an untraced baseline must share with a traced run to compare:
    the seed, the run length and the very driver binary."""
    st = os.stat(binary)
    return {"seed": args.seed, "seconds": args.seconds,
            "binary_mtime_ns": st.st_mtime_ns, "binary_size": st.st_size}


def print_overhead(workload, key, traced_line):
    """Traced minus untraced end-to-end metrics, when both are known."""
    path = last_untraced_path(workload)
    baseline = None
    if os.path.exists(path):
        with open(path) as f:
            baseline = json.load(f)
    if not traced_line or baseline is None or baseline.get("key") != key:
        print(f"trace_overhead {workload}: no comparable untraced run "
              f"(same seed, seconds and binary)")
        return
    traced = json.loads(traced_line[len("traced_e2e "):])
    untraced = baseline["metrics"]
    for name, m in traced.items():
        if name not in untraced:
            continue
        base = untraced[name]["value"]
        diff = m["value"] - base
        share = f" ({diff / base:+.1%})" if base else ""
        print(f"trace_overhead {workload} {name}: traced {m['value']:.6g} "
              f"untraced {base:.6g} {m['unit']}, diff {diff:+.6g}{share}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", choices=["0", "1"], required=True)
    args, extra = parser.parse_known_args()

    try:
        binary = build()
    except (RuntimeError, subprocess.CalledProcessError, OSError) as e:
        log(f"build failed: {e}")
        return 1

    trace_dir = os.path.join(BUILD_ROOT, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--out-dir", trace_dir] + extra
    deadline = time.monotonic() + RUN_TIMEOUT_S
    for attempt in range(RETRIES + 1):
        try:
            proc = subprocess.run(
                cmd, stdout=subprocess.PIPE, text=True,
                timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            log("run timed out")
            return 1
        if proc.returncode != INVALID_RUN_EXIT:
            break
        log(f"invalid run (attempt {attempt + 1}), not recorded")
    if proc.returncode != 0:
        log(f"driver exited with {proc.returncode}")
        return 1

    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError("unexpected keys")
    except (ValueError, IndexError) as e:
        log(f"malformed result line: {e}")
        return 1
    traced_line = next((l for l in lines if l.startswith("traced_e2e ")), None)
    for line in lines[:-1]:
        print(line)
    key = run_key(args, binary)
    if args.trace == "1":
        print_overhead(args.workload, key, traced_line)
    elif not extra:  # Only registered-scale runs are a baseline.
        with open(last_untraced_path(args.workload), "w") as f:
            json.dump({"key": key, "metrics": result["metrics"]}, f)
    print(lines[-1], flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
