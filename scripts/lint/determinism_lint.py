#!/usr/bin/env python3
"""Determinism lint: bans result-order-sensitive patterns in the hot tree.

The repo's standing guarantee (docs/trace_format.md, the conformance CTest
label) is that OVH/IMA/GMA produce byte-identical results under any shard
and pipeline configuration.  That guarantee dies quietly when result
paths pick up a dependence on something the language does not order:

  unordered-iter   iterating a std::unordered_map / std::unordered_set
                   (range-for or .begin() walks).  Hash-table iteration
                   order is unspecified and changes across libstdc++
                   versions, hash seeds, and insertion histories.
  pointer-key      std::map / std::set keyed by a pointer type.  The
                   iteration order is the allocator's address order, which
                   ASLR re-rolls every run.
  wall-clock       reading std::chrono clocks / time() / clock_gettime()
                   outside the metrics layer.  Result paths must depend on
                   the simulated timestamp, never on wall time.
  raw-rand         rand() / srand() / random() / std::random_device.  All
                   randomness flows through the seeded cknn::Rng.
  env-read         getenv() / secure_getenv().  Engine behaviour is fixed by
                   constructor arguments and flags, never switched by the
                   process environment.

Scanned by default: src/core, src/graph, src/spatial (the result-producing
layers).  src/sim (metrics/stopwatches) and src/serve (latency timestamps)
are deliberately out of scope for wall-clock reads.

A finding is suppressed with an escape comment carrying a reason, on the
flagged line or the line directly above it:

    // cknn-lint: allow(unordered-iter) commutative sum, order-free

An escape without a reason is itself an error (allow-missing-reason).

Self-tests: `--self-test` lints every fixture under scripts/lint/fixtures/
and compares the findings against the `LINT-EXPECT: <rule>` markers in the
fixture source (good_* fixtures carry no markers and must come out clean).

Exit code: 0 clean, 1 findings, 2 usage/internal error.
"""

import argparse
import os
import re
import sys

RULES = {
    "unordered-iter":
        "iteration over an unordered container (order is unspecified); "
        "iterate a sorted copy or an ordered sibling, or escape with a "
        "reason why order cannot reach results",
    "pointer-key":
        "ordered container keyed by a pointer (iteration order is address "
        "order, re-rolled by ASLR every run)",
    "wall-clock":
        "wall-clock read in a result path (results must depend on the "
        "simulated timestamp only; metrics live in src/sim)",
    "raw-rand":
        "unseeded randomness (use the seeded cknn::Rng so runs replay)",
    "env-read":
        "environment read in a result path (pass the setting in explicitly; "
        "the environment must not switch engine behaviour)",
}

DEFAULT_DIRS = ("src/core", "src/graph", "src/spatial")
SOURCE_EXTS = (".h", ".cc", ".cpp", ".hpp")

ALLOW_RE = re.compile(r"//\s*cknn-lint:\s*allow\(([a-z-]+)\)\s*(.*)$")
EXPECT_RE = re.compile(r"LINT-EXPECT:\s*([a-z-]+)")

# Declarations of unordered containers: `std::unordered_map<K, V> name`,
# members, params, and nested element types (vector<unordered_map<...>>).
UNORDERED_DECL_RE = re.compile(
    r"unordered_(?:map|set|multimap|multiset)\s*<")
DECL_NAME_RE = re.compile(r"[&*\s]([A-Za-z_]\w*)\s*(?:;|=|\{|\)|,|$)")

RANGE_FOR_RE = re.compile(r"\bfor\s*\(([^;]*?):([^;]*)\)\s*(?:\{|[^;{]*;|$)")
BEGIN_CALL_RE = re.compile(
    r"\b([A-Za-z_]\w*)\s*(?:\[[^\]]*\])?\s*(?:\.|->)\s*c?begin\s*\(")
POINTER_KEY_RE = re.compile(
    r"\b(?:std\s*::\s*)?(?:map|set|multimap|multiset)\s*<"
    r"\s*(?:const\s+)?[\w:]+(?:\s*<[^<>]*>)?\s*\*")
WALL_CLOCK_RE = re.compile(
    r"std\s*::\s*chrono\b|::\s*now\s*\(|\bgettimeofday\s*\(|"
    r"\bclock_gettime\s*\(|\btime\s*\(\s*(?:NULL|nullptr|0|&)|"
    r"\bclock\s*\(\s*\)")
RAW_RAND_RE = re.compile(
    r"\brand\s*\(\s*\)|\bsrand\s*\(|\brandom\s*\(\s*\)|"
    r"std\s*::\s*random_device\b|\brand_r\s*\(")
ENV_READ_RE = re.compile(r"\b(?:secure_)?getenv\s*\(")


def strip_comments_and_strings(text):
    """Blanks comments and string/char literals, preserving line structure.

    Keeps every newline so findings carry real line numbers; replaced
    regions become spaces so column-free regexes cannot match into them.
    """
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j < 0 else j
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n - 2 if j < 0 else j
            seg = text[i:j + 2]
            out.append("".join(ch if ch == "\n" else " " for ch in seg))
            i = j + 2
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j, n - 1)
            out.append(" " * (j + 1 - i))
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def unordered_symbols(stripped):
    """Names declared (or bound) with a type mentioning unordered_*.

    Includes struct members and function parameters, so iterating
    `it->second.queries` is caught through its final component. Blunt by
    design: a false positive costs one escape comment with a reason.
    """
    names = set()
    for line in stripped.splitlines():
        if not UNORDERED_DECL_RE.search(line):
            continue
        # The declared name follows the closing angle bracket of the
        # (possibly nested) template argument list.
        depth = 0
        start = line.find("<", UNORDERED_DECL_RE.search(line).start())
        tail_at = None
        for k in range(start, len(line)):
            if line[k] == "<":
                depth += 1
            elif line[k] == ">":
                depth -= 1
                if depth == 0:
                    tail_at = k + 1
                    break
        if tail_at is None:
            continue
        # An outer wrapper (vector<unordered_map<...>> il_) closes with
        # more '>'s; skip them before looking for the name.
        tail = line[tail_at:].lstrip("> \t")
        m = re.match(r"[&*\s]*([A-Za-z_]\w*)", tail)
        if m:
            names.add(m.group(1))
    return names


def target_names(expr):
    """Base and final identifiers of a range-for target expression."""
    expr = expr.strip()
    names = []
    m = re.match(r"[\s(*&]*([A-Za-z_]\w*)", expr)
    if m:
        names.append(m.group(1))
    parts = re.findall(r"[A-Za-z_]\w*", expr)
    if parts:
        names.append(parts[-1])
    return names


def find_allows(raw_lines, lineno):
    """Escape comments that apply to 1-indexed `lineno` (same or previous
    line). Returns (rules, reason_missing_line)."""
    rules = set()
    missing = None
    for cand in (lineno, lineno - 1):
        if 1 <= cand <= len(raw_lines):
            m = ALLOW_RE.search(raw_lines[cand - 1])
            if m:
                if m.group(2).strip():
                    rules.add(m.group(1))
                else:
                    missing = cand
    return rules, missing


def sibling_header_symbols(path):
    """Unordered-container members declared in the paired header.

    A .cc file iterating `queries_` sees only the header's declaration, so
    the per-file symbol table alone would miss every member iteration.
    """
    base, ext = os.path.splitext(path)
    if ext not in (".cc", ".cpp"):
        return set()
    names = set()
    for header_ext in (".h", ".hpp"):
        header = base + header_ext
        if os.path.isfile(header):
            with open(header, "r", encoding="utf-8", errors="replace") as f:
                names |= unordered_symbols(strip_comments_and_strings(
                    f.read()))
    return names


def lint_file(path, text=None):
    """Returns a list of (lineno, rule, message) findings for one file."""
    if text is None:
        with open(path, "r", encoding="utf-8", errors="replace") as f:
            text = f.read()
    raw_lines = text.splitlines()
    stripped = strip_comments_and_strings(text)
    stripped_lines = stripped.splitlines()
    symbols = unordered_symbols(stripped) | sibling_header_symbols(path)

    hits = []  # (lineno, rule, detail)
    for i, line in enumerate(stripped_lines, start=1):
        for m in RANGE_FOR_RE.finditer(line):
            for name in target_names(m.group(2)):
                if name in symbols:
                    hits.append((i, "unordered-iter",
                                 "range-for over unordered container "
                                 f"'{name}'"))
                    break
        for m in BEGIN_CALL_RE.finditer(line):
            if m.group(1) in symbols:
                hits.append((i, "unordered-iter",
                             "iterator walk over unordered container "
                             f"'{m.group(1)}'"))
        if POINTER_KEY_RE.search(line):
            hits.append((i, "pointer-key", "pointer-keyed ordered container"))
        if WALL_CLOCK_RE.search(line):
            hits.append((i, "wall-clock", "wall-clock read"))
        if RAW_RAND_RE.search(line):
            hits.append((i, "raw-rand", "unseeded randomness"))
        if ENV_READ_RE.search(line):
            hits.append((i, "env-read", "environment read"))

    findings = []
    for lineno, rule, detail in hits:
        allowed, missing = find_allows(raw_lines, lineno)
        if missing is not None:
            findings.append((lineno, "allow-missing-reason",
                             "escape comment without a reason"))
            continue
        if rule in allowed:
            continue
        findings.append((lineno, rule, f"{detail}: {RULES[rule]}"))
    # An allow comment that never matched a finding is stale; flag it so
    # escapes cannot rot in place after the code under them is fixed.
    flagged_lines = {ln for ln, _, _ in hits}
    for i, raw in enumerate(raw_lines, start=1):
        m = ALLOW_RE.search(raw)
        # Rot-check only this lint's own rules: `allow(abort)` and
        # `allow(status-discard)` escapes in src/core belong to
        # status_lint.py, which runs its own stale-allow pass over them.
        if m and m.group(1) in RULES and m.group(2).strip():
            if i not in flagged_lines and (i + 1) not in flagged_lines:
                findings.append((i, "stale-allow",
                                 f"escape for '{m.group(1)}' matches no "
                                 "finding on this or the next line"))
    return sorted(set(findings))


def iter_sources(root, rel_dirs):
    for rel in rel_dirs:
        base = os.path.join(root, rel)
        if not os.path.isdir(base):
            continue
        for dirpath, _, files in os.walk(base):
            for name in sorted(files):
                if name.endswith(SOURCE_EXTS):
                    yield os.path.join(dirpath, name)


def run_tree(root, rel_dirs):
    total = 0
    for path in iter_sources(root, rel_dirs):
        for lineno, rule, message in lint_file(path):
            rel = os.path.relpath(path, root)
            print(f"{rel}:{lineno}: [{rule}] {message}")
            total += 1
    if total:
        print(f"determinism_lint: {total} finding(s)", file=sys.stderr)
        return 1
    return 0


def run_self_test(fixtures_dir):
    failures = 0
    checked = 0
    for name in sorted(os.listdir(fixtures_dir)):
        if not name.endswith(SOURCE_EXTS):
            continue
        path = os.path.join(fixtures_dir, name)
        with open(path, "r", encoding="utf-8") as f:
            text = f.read()
        expected = []
        for i, raw in enumerate(text.splitlines(), start=1):
            for m in EXPECT_RE.finditer(raw):
                expected.append((i, m.group(1)))
        got = [(lineno, rule) for lineno, rule, _ in lint_file(path, text)]
        if sorted(got) != sorted(expected):
            failures += 1
            print(f"SELF-TEST FAIL {name}:", file=sys.stderr)
            print(f"  expected: {sorted(expected)}", file=sys.stderr)
            print(f"  got:      {sorted(got)}", file=sys.stderr)
        else:
            checked += 1
    if failures:
        print(f"determinism_lint --self-test: {failures} fixture(s) failed",
              file=sys.stderr)
        return 1
    if checked == 0:
        print("determinism_lint --self-test: no fixtures found",
              file=sys.stderr)
        return 2
    print(f"determinism_lint --self-test: {checked} fixtures OK")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        description="cknn determinism lint (see docs/static_analysis.md)")
    parser.add_argument("--root", default=None,
                        help="repo root (default: two levels above this "
                             "script)")
    parser.add_argument("--self-test", action="store_true",
                        help="lint the fixtures and check LINT-EXPECT "
                             "markers")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("paths", nargs="*",
                        help="directories to scan, relative to --root "
                             f"(default: {' '.join(DEFAULT_DIRS)})")
    args = parser.parse_args(argv)

    script_dir = os.path.dirname(os.path.abspath(__file__))
    root = args.root or os.path.dirname(os.path.dirname(script_dir))

    if args.list_rules:
        for rule, text in RULES.items():
            print(f"{rule}: {text}")
        return 0
    if args.self_test:
        return run_self_test(os.path.join(script_dir, "fixtures"))
    return run_tree(root, args.paths or list(DEFAULT_DIRS))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
