#!/usr/bin/env python3
"""Compare the paper binaries' result blocks with their committed goldens.

Usage: check_paper_results.py GOLDEN_DIR OUT_DIR FINGERPRINT_BINARY PAPER_BINARY...

Each paper binary runs with --benchmark_filter='^$' (no timing loops). Its
result block is stdout up to, not including, the line that ends in
": run metrics ===": the reproduced tables and figures, without the
metrics dump and the timings. Each block must equal GOLDEN_DIR/<name>.txt
byte for byte.

The blocks print doubles, so a libm that rounds differently can move a
last printed digit without any change to the program. FINGERPRINT_BINARY
prints the bits of a few libm results; when its output differs from
GOLDEN_DIR/libm_fingerprint.txt, the comparison does not apply. The script
then writes fresh blocks and the fingerprint into OUT_DIR, prints that
path and exits with 77, which ctest reports as skipped.

Exit status: 0 when every block matches, 1 on a mismatch or a missing
marker, 77 when the libm fingerprint differs, 2 on a usage error.
"""

import difflib
import os
import subprocess
import sys

MARKER = ": run metrics ==="
SKIP = 77


def result_block(binary):
    out = subprocess.run([binary, "--benchmark_filter=^$"], check=True,
                         capture_output=True, text=True).stdout
    lines = out.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.rstrip("\n").endswith(MARKER):
            return "".join(lines[:i])
    return None


def write_fresh(out_dir, fingerprint, blocks):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "libm_fingerprint.txt"), "w") as f:
        f.write(fingerprint)
    for name, block in blocks.items():
        with open(os.path.join(out_dir, name + ".txt"), "w") as f:
            f.write(block)


def main(argv):
    if len(argv) < 4:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    golden_dir, out_dir, fingerprint_binary, binaries = argv[0], argv[1], argv[2], argv[3:]

    blocks = {}
    for binary in binaries:
        name = os.path.basename(binary)
        block = result_block(binary)
        if block is None:
            print(f"{name}: no line ending in '{MARKER}' on stdout")
            return 1
        blocks[name] = block

    fingerprint = subprocess.run([fingerprint_binary], check=True,
                                 capture_output=True, text=True).stdout
    with open(os.path.join(golden_dir, "libm_fingerprint.txt")) as f:
        golden_fingerprint = f.read()
    if fingerprint != golden_fingerprint:
        write_fresh(out_dir, fingerprint, blocks)
        print("libm fingerprint differs from the goldens'; the comparison does not apply.")
        print(f"fresh result blocks written to {out_dir}")
        return SKIP

    failed = 0
    for name, block in blocks.items():
        with open(os.path.join(golden_dir, name + ".txt")) as f:
            golden = f.read()
        if block != golden:
            failed += 1
            print(f"{name}: result block differs from its golden")
            sys.stdout.writelines(difflib.unified_diff(
                golden.splitlines(keepends=True), block.splitlines(keepends=True),
                f"golden/{name}.txt", f"{name} stdout"))
    if failed:
        return 1
    print(f"{len(blocks)} result blocks match their goldens")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
