#!/usr/bin/env python3
"""Tests for rdmc_lint: bad fixtures must flag, good fixtures must pass,
and suppressions must round-trip (suppressed file passes; the same file
with its rdmc-lint comments stripped fires every rule).

Run from anywhere: paths resolve relative to this script. Exit 0 on
success, 1 with a failure report otherwise. Wired into ctest as test_lint.
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
LINT = os.path.join(HERE, "rdmc_lint")
FIXTURES = os.path.join(HERE, "fixtures")

ALL_RULES = (
    "wall-clock",
    "unseeded-rng",
    "unordered-iter",
    "pointer-order",
    "float-accumulate",
    "raw-mutex",
)

failures = []


def run_lint(paths):
    proc = subprocess.run(
        [sys.executable, LINT] + paths,
        capture_output=True,
        text=True,
        cwd=HERE,
    )
    return proc.returncode, proc.stdout, proc.stderr


def check(name, cond, detail=""):
    if cond:
        print(f"  ok: {name}")
    else:
        failures.append(name)
        print(f"  FAIL: {name}{' — ' + detail if detail else ''}")


def rules_in(output):
    return set(re.findall(r"\[([\w-]+)\]", output))


def main():
    # --- Bad fixtures: each rule's fixture must flag exactly that rule. ---
    print("bad fixtures (must flag):")
    bad_cases = [
        ("wall-clock", "bad/src/core/wall_clock.cpp", 3),
        ("unseeded-rng", "bad/src/sim/unseeded_rng.cpp", 3),
        ("unordered-iter", "bad/src/fabric", 3),  # header+source pair
        ("pointer-order", "bad/src/util/pointer_order.cpp", 3),
        ("float-accumulate", "bad/bench/float_accumulate.cpp", 1),
        ("raw-mutex", "bad/src/obs/raw_mutex.cpp", 3),
    ]
    for rule, rel, min_count in bad_cases:
        code, out, _ = run_lint([os.path.join(FIXTURES, rel)])
        flagged = rules_in(out)
        count = out.count(f"[{rule}]")
        check(f"{rule} fixture exits nonzero", code != 0)
        check(
            f"{rule} fixture flags only [{rule}] (>= {min_count}x)",
            flagged == {rule} and count >= min_count,
            f"got {sorted(flagged)} x{count}:\n{out}",
        )

    # Findings carry file:line anchors.
    code, out, _ = run_lint([os.path.join(FIXTURES, "bad/src/core/wall_clock.cpp")])
    check(
        "findings carry file:line anchors",
        re.search(r"wall_clock\.cpp:\d+: \[wall-clock\]", out) is not None,
        out,
    )

    # A reasonless or unknown-rule allow() is itself a finding and does not
    # suppress the underlying one.
    code, out, _ = run_lint(
        [os.path.join(FIXTURES, "bad/src/core/bad_suppression.cpp")]
    )
    check("reasonless allow() exits nonzero", code != 0)
    check(
        "reasonless allow() reports bad-suppression AND the original rule",
        {"bad-suppression", "wall-clock"} <= rules_in(out),
        out,
    )

    # --- Good fixtures: deterministic idioms and out-of-scope paths pass. ---
    print("good fixtures (must pass):")
    code, out, err = run_lint([os.path.join(FIXTURES, "good")])
    check("good tree exits zero", code == 0, out + err)
    check("good tree reports no findings", out.strip() == "", out)

    # --- Suppression round-trip. ---
    print("suppression round-trip:")
    suppressed_root = os.path.join(FIXTURES, "suppressed")
    code, out, err = run_lint([suppressed_root])
    check("suppressed fixture exits zero", code == 0, out + err)

    tmp = tempfile.mkdtemp(prefix="rdmc_lint_test_")
    try:
        # Same file, rdmc-lint comments stripped, same src/core/ path shape.
        stripped_dir = os.path.join(tmp, "src", "core")
        os.makedirs(stripped_dir)
        src = os.path.join(suppressed_root, "src", "core", "suppressed.cpp")
        with open(src, encoding="utf-8") as f:
            text = f.read()
        stripped = re.sub(r"//\s*rdmc-lint:[^\n]*", "", text)
        with open(
            os.path.join(stripped_dir, "suppressed.cpp"), "w", encoding="utf-8"
        ) as f:
            f.write(stripped)
        code, out, _ = run_lint([tmp])
        check("stripped copy exits nonzero", code != 0)
        check(
            "stripped copy fires every rule",
            set(ALL_RULES) <= rules_in(out),
            f"got {sorted(rules_in(out))}:\n{out}",
        )
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    # --- The real tree must be clean (guards against rot in either the
    # tool or the sources; suppressions in-tree must stay reasoned). ---
    print("repo tree:")
    repo_root = os.path.dirname(os.path.dirname(HERE))
    roots = [
        os.path.join(repo_root, d)
        for d in ("src", "bench", "examples")
        if os.path.isdir(os.path.join(repo_root, d))
    ]
    code, out, err = run_lint(roots)
    check("src/bench/examples are lint-clean", code == 0, out + err)

    if failures:
        print(f"\n{len(failures)} check(s) failed: {failures}")
        return 1
    print("\nall rdmc_lint checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
