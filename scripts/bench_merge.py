#!/usr/bin/env python3
"""Merge per-figure Google Benchmark JSON into one BENCH_results.json.

Usage:
    bench_merge.py --out BENCH_results.json --scale quick [--seed 42] \
        build/bench_json/*.json

Each input file is one figure's ``--benchmark_format=json`` output (real
Google Benchmark and the vendored shim emit the same shape); the figure
name is the file's basename without the ``.json`` suffix (a leading
``bench_`` is stripped). Every successful benchmark entry becomes one
record with the schema

    {figure, algo, sec_per_ts, max_sec, cpu_sec_per_ts, mem_kb, scale, seed}

plus ``name``/``args`` for traceability, and — for figures that report
counters beyond the standard set (e.g. ``fig_serving``'s
``updates_per_sec``) — an ``extras`` object carrying every
non-standard numeric counter verbatim. ``sec_per_ts`` is wall time;
``cpu_sec_per_ts`` is process CPU time (all threads), recorded separately
so sharded/pipelined figures do not conflate the two (null for captures
made before the counter existed). The merge fails loudly — nonzero
exit, message on stderr — on malformed input, a duplicate figure name, or
an entry missing the mandatory ``sec_per_ts`` counter, so a broken capture
cannot masquerade as a recorded result. Entries that skipped with an error
(e.g. paper-scale-only points at quick scale) are counted but not recorded.
"""

import argparse
import json
import os
import sys

# Entry keys that are benchmark-library bookkeeping or already-mapped
# standard counters; every OTHER numeric key is a figure-specific user
# counter and is preserved under ``extras``.
_STANDARD_ENTRY_KEYS = {
    "name", "run_name", "run_type", "repetitions", "repetition_index",
    "threads", "iterations", "real_time", "cpu_time", "time_unit", "label",
    "error_occurred", "error_message", "skipped", "skip_message",
    "family_index", "per_family_instance_index", "aggregate_name",
    "aggregate_unit", "items_per_second", "bytes_per_second",
    "sec_per_ts", "max_sec", "cpu_sec_per_ts", "mem_kb",
}

# Name segments that are run modifiers, not benchmark arguments.
_MODIFIER_KEYS = {
    "iterations",
    "repeats",
    "min_time",
    "min_warmup_time",
    "threads",
    "real_time",
    "process_time",
    "manual_time",
}


def fail(message):
    print(f"bench_merge: error: {message}", file=sys.stderr)
    sys.exit(1)


def figure_of(path):
    stem = os.path.basename(path)
    if stem.endswith(".json"):
        stem = stem[: -len(".json")]
    if stem.startswith("bench_"):
        stem = stem[len("bench_"):]
    return stem


def args_of(name):
    """Extracts the benchmark arguments from an instance name like
    ``Fig13a/algo:2/N_thousands:10/iterations:1/manual_time``.

    An un-named (positional) argument is keyed ``argN`` where N is its
    position among all arguments, named or not, so mixed registrations
    keep stable keys."""
    args = {}
    position = 0
    for part in name.split("/")[1:]:
        key, sep, raw = part.partition(":")
        if sep:
            if key in _MODIFIER_KEYS:
                continue
            value = raw
        else:  # Positional (un-named) argument.
            if part in _MODIFIER_KEYS:
                continue
            key, value = f"arg{position}", part
        try:
            args[key] = int(value)
        except ValueError:
            try:
                args[key] = float(value)
            except ValueError:
                args[key] = value
        position += 1
    return args


def load_entries(path):
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, ValueError) as exc:
        fail(f"{path}: malformed benchmark JSON: {exc}")
    entries = doc.get("benchmarks") if isinstance(doc, dict) else None
    if not isinstance(entries, list):
        fail(f"{path}: no 'benchmarks' array (not benchmark JSON output?)")
    return entries


def main(argv):
    parser = argparse.ArgumentParser(
        description="Merge per-figure benchmark JSON into BENCH_results.json")
    parser.add_argument("--out", required=True, help="merged output path")
    parser.add_argument("--scale", required=True,
                        help="capture scale (smoke|quick|paper)")
    parser.add_argument("--seed", type=int, default=42,
                        help="workload master seed the suite ran with")
    parser.add_argument("--append", action="store_true",
                        help="merge into an existing --out file: records of "
                             "re-captured figures are replaced, records of "
                             "other figures are kept (scale and seed must "
                             "match; skipped_entries becomes cumulative)")
    parser.add_argument("inputs", nargs="+", help="per-figure JSON files")
    ns = parser.parse_args(argv)

    results = []
    skipped = 0
    seen = {}
    if ns.append and os.path.exists(ns.out):
        try:
            with open(ns.out, encoding="utf-8") as handle:
                existing = json.load(handle)
        except (OSError, ValueError) as exc:
            fail(f"{ns.out}: cannot append to malformed results file: {exc}")
        if existing.get("scale") != ns.scale or existing.get("seed") != ns.seed:
            fail(f"{ns.out}: append scale/seed mismatch: file has "
                 f"{existing.get('scale')}/{existing.get('seed')}, run is "
                 f"{ns.scale}/{ns.seed}")
        recaptured = {figure_of(path) for path in ns.inputs}
        for record in existing.get("results", []):
            figure = record.get("figure")
            if figure in recaptured:
                continue  # Replaced by this run.
            results.append(record)
            seen.setdefault(figure, ns.out)
        for figure in existing.get("figures", []):
            # Keep even figures whose entries all skipped (no records).
            if figure not in recaptured:
                seen.setdefault(figure, ns.out)
        skipped = int(existing.get("skipped_entries", 0))
    for path in ns.inputs:
        figure = figure_of(path)
        if figure in seen:
            fail(f"duplicate figure name '{figure}' "
                 f"({seen[figure]} and {path})")
        seen[figure] = path
        recorded = 0
        for entry in load_entries(path):
            if not isinstance(entry, dict):
                fail(f"{path}: non-object entry in 'benchmarks'")
            if entry.get("run_type") == "aggregate":
                continue
            name = entry.get("name", "<unnamed>")
            if entry.get("error_occurred") or entry.get("skipped"):
                skipped += 1
                continue
            if "sec_per_ts" not in entry:
                fail(f"{path}: benchmark '{name}' is missing the sec_per_ts "
                     "counter; every figure must report it (bench_common.h "
                     "RunAndReport)")
            record = {
                "figure": figure,
                "algo": entry.get("label", "<unlabeled>"),
                "sec_per_ts": entry["sec_per_ts"],
                "max_sec": entry.get("max_sec"),
                "cpu_sec_per_ts": entry.get("cpu_sec_per_ts"),
                "mem_kb": entry.get("mem_kb"),
                "scale": ns.scale,
                "seed": ns.seed,
                "name": name,
                "args": args_of(name),
            }
            extras = {
                key: value
                for key, value in entry.items()
                if key not in _STANDARD_ENTRY_KEYS
                and isinstance(value, (int, float))
                and not isinstance(value, bool)
            }
            if extras:
                record["extras"] = extras
            results.append(record)
            recorded += 1
        if recorded == 0:
            print(f"bench_merge: warning: {path}: no successful benchmark "
                  "entries", file=sys.stderr)
    if not results:
        fail("no successful benchmark entries in any input")

    results.sort(key=lambda r: (r["figure"], r["name"]))
    document = {
        "schema": ["figure", "algo", "sec_per_ts", "max_sec",
                   "cpu_sec_per_ts", "mem_kb", "scale", "seed"],
        "scale": ns.scale,
        "seed": ns.seed,
        "figures": sorted(seen),
        "skipped_entries": skipped,
        "results": results,
    }
    with open(ns.out, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2)
        handle.write("\n")
    print(f"bench_merge: wrote {len(results)} results from {len(seen)} "
          f"figures to {ns.out} ({skipped} skipped entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
