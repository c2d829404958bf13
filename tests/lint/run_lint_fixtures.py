#!/usr/bin/env python3
"""Fixture harness for spotbid-lint.

Each directory under tests/lint/cases/ is a miniature repository tree that
isolates one rule family: a known-bad variant that must produce an exact set
of diagnostics with exit code 1, and a known-good variant that must pass
clean with exit code 0. The harness always runs the token-level fallback
mode; when the libclang python bindings are importable it runs that mode too
and asserts the verdicts (exit code + rule multiset) agree — the acceptance
bar for "the fallback never silently diverges".

No third-party test framework: plain python3, exit 0/1, registered with
ctest as `lint_fixtures` (tests/CMakeLists.txt).
"""

from __future__ import annotations

import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
LINT = os.path.join(REPO, "tools", "spotbid_lint", "spotbid_lint.py")
CASES_DIR = os.path.join(HERE, "cases")

# case name -> (expected exit code, exact set of diagnostic rule names,
#               expected number of honored suppressions)
CASES = {
    "D_bad": (1, {"D-rand", "D-clock", "D-getenv", "D-unordered",
                  "D-par-reduce", "X-suppression"}, 0),
    "D_good": (0, set(), 1),
    "C_bad": (1, {"C-uncovered", "C-regression"}, 0),
    "C_good": (0, set(), 0),
    "M_bad": (1, {"M-undocumented", "M-unregistered", "M-misclassified"}, 0),
    "M_good": (0, set(), 0),
    "S_bad": (1, {"S-atomicptr", "S-stdatomic", "S-mutex",
                  "S-net-blocking", "S-net-rawwire", "S-net-epoll"}, 0),
    "S_good": (0, set(), 4),
}

_DIAG_RE = re.compile(r"^\S+:\d+: (?:error|note): \[([A-Za-z-]+)\]")
_SUPPRESS_RE = re.compile(r"(\d+) suppression\(s\) honored")


def libclang_available() -> bool:
    probe = subprocess.run(
        [sys.executable, "-c", "import clang.cindex; clang.cindex.Index.create()"],
        capture_output=True)
    return probe.returncode == 0


def run_case(case: str, mode: str) -> tuple[int, set[str], int, str]:
    proc = subprocess.run(
        [sys.executable, LINT, "--root", os.path.join(CASES_DIR, case),
         "--mode", mode],
        capture_output=True, text=True)
    rules = {m.group(1) for line in proc.stdout.splitlines()
             if (m := _DIAG_RE.match(line))}
    m = _SUPPRESS_RE.search(proc.stdout)
    honored = int(m.group(1)) if m else 0
    transcript = proc.stdout + proc.stderr
    return proc.returncode, rules, honored, transcript


def main() -> int:
    modes = ["fallback"]
    if libclang_available():
        modes.append("libclang")
    else:
        print("lint fixtures: libclang unavailable; fallback mode only")

    failures = 0
    for case, (want_code, want_rules, want_honored) in sorted(CASES.items()):
        verdicts = {}
        for mode in modes:
            code, rules, honored, transcript = run_case(case, mode)
            verdicts[mode] = (code, frozenset(rules))
            problems = []
            if code != want_code:
                problems.append(f"exit {code}, want {want_code}")
            if rules != want_rules:
                problems.append(f"rules {sorted(rules)}, want {sorted(want_rules)}")
            if honored != want_honored:
                problems.append(f"{honored} suppressions honored, want {want_honored}")
            if problems:
                failures += 1
                print(f"FAIL {case} [{mode}]: " + "; ".join(problems))
                print("  --- lint output ---")
                for line in transcript.splitlines():
                    print(f"  {line}")
            else:
                print(f"PASS {case} [{mode}]")
        if len(modes) == 2 and verdicts["fallback"] != verdicts["libclang"]:
            failures += 1
            print(f"FAIL {case}: mode verdicts diverge: "
                  f"fallback={verdicts['fallback']} libclang={verdicts['libclang']}")

    if failures:
        print(f"lint fixtures: {failures} failure(s)")
        return 1
    print(f"lint fixtures: all {len(CASES)} case(s) passed in {len(modes)} mode(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
