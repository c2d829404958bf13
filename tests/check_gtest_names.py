#!/usr/bin/env python3
"""Check that every gtest binary lists stable, readable test names.

Usage: check_gtest_names.py BINARY...

Runs each binary's `--gtest_list_tests` twice. The two listings must be
identical, and no name may carry gtest's fallback parameter dump
("N-byte object <...>"): that dump prints a parameter's raw bytes, pointers
included, so the ctest names gtest_discover_tests registers would change
from one build or run to the next. A parameter struct fixes this with a
`PrintTo` overload that prints its fields.

Exit status: 0 when every listing is stable and readable, 1 otherwise,
2 on a usage error.
"""

import subprocess
import sys

RAW_BYTES = "-byte object <"


def listing(binary):
    return subprocess.run([binary, "--gtest_list_tests"], check=True,
                          capture_output=True, text=True).stdout


def main(binaries):
    if not binaries:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    problems = 0
    for binary in binaries:
        first = listing(binary)
        if listing(binary) != first:
            print(f"{binary}: --gtest_list_tests differs between two runs")
            problems += 1
        for line in first.splitlines():
            if RAW_BYTES in line:
                print(f"{binary}: raw parameter bytes in a test name: {line.strip()}")
                problems += 1
    print(f"checked {len(binaries)} binaries: {problems} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
