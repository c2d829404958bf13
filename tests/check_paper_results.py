#!/usr/bin/env python3
"""Compare the paper figures' result blocks with their committed goldens.

Usage: check_paper_results.py GOLDEN_DIR OUT_DIR FINGERPRINT_BINARY PAPER_BINARY

PAPER_BINARY is the spotbid_paper driver. Run with no argument it must
exit 2 and list its figure names on stderr, one per line indented by two
spaces; run with an unknown name it must exit 2 as well. The listed names
must equal the stems of GOLDEN_DIR/*.txt other than libm_fingerprint, so
neither a figure without a golden nor a golden without a figure passes.

Each figure then runs as `PAPER_BINARY <name>`. Its result block is stdout
up to, not including, the line that ends in ": run metrics ===": the
reproduced tables and figures, without the metrics dump. Each block must
equal GOLDEN_DIR/<name>.txt byte for byte.

The blocks print doubles, so a libm that rounds differently can move a
last printed digit without any change to the program. FINGERPRINT_BINARY
prints the bits of a few libm results; when its output differs from
GOLDEN_DIR/libm_fingerprint.txt, the comparison does not apply. The script
then writes fresh blocks and the fingerprint into OUT_DIR, prints that
path and exits with 77, which ctest reports as skipped.

Exit status: 0 when every block matches, 1 on a mismatch, a missing
marker or a figure list that differs from the goldens, 77 when the libm
fingerprint differs, 2 on a usage error.
"""

import difflib
import os
import subprocess
import sys

MARKER = ": run metrics ==="
FINGERPRINT = "libm_fingerprint"
SKIP = 77


def figure_names(binary):
    """The driver's figure list, or None when its usage exit is not 2."""
    listing = subprocess.run([binary], capture_output=True, text=True)
    unknown = subprocess.run([binary, "no_such_figure"], capture_output=True, text=True)
    if listing.returncode != 2 or unknown.returncode != 2:
        return None
    return [line.strip() for line in listing.stderr.splitlines() if line.startswith("  ")]


def result_block(binary, name):
    out = subprocess.run([binary, name], check=True,
                         capture_output=True, text=True).stdout
    lines = out.splitlines(keepends=True)
    for i, line in enumerate(lines):
        if line.rstrip("\n").endswith(MARKER):
            return "".join(lines[:i])
    return None


def write_fresh(out_dir, fingerprint, blocks):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, FINGERPRINT + ".txt"), "w") as f:
        f.write(fingerprint)
    for name, block in blocks.items():
        with open(os.path.join(out_dir, name + ".txt"), "w") as f:
            f.write(block)


def main(argv):
    if len(argv) != 4:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    golden_dir, out_dir, fingerprint_binary, binary = argv

    names = figure_names(binary)
    if names is None:
        print(f"{binary}: no argument and an unknown figure must both exit 2")
        return 1
    goldens = sorted(f[:-len(".txt")] for f in os.listdir(golden_dir)
                     if f.endswith(".txt") and f != FINGERPRINT + ".txt")
    if sorted(names) != goldens:
        print("figure list differs from the goldens")
        print(f"  figures without a golden: {sorted(set(names) - set(goldens))}")
        print(f"  goldens without a figure: {sorted(set(goldens) - set(names))}")
        return 1

    blocks = {}
    for name in names:
        block = result_block(binary, name)
        if block is None:
            print(f"{name}: no line ending in '{MARKER}' on stdout")
            return 1
        blocks[name] = block

    fingerprint = subprocess.run([fingerprint_binary], check=True,
                                 capture_output=True, text=True).stdout
    with open(os.path.join(golden_dir, FINGERPRINT + ".txt")) as f:
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
