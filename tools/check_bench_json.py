#!/usr/bin/env python3
"""Validate a bench JSON artifact against tools/bench_schema.json.

The schema describes one document: bench_loadgen's BENCH_loadgen.json
(top-level "benchmark": "loadgen").

Stdlib only (CI installs no Python packages), so this implements the small
JSON-Schema subset the schema file actually uses:

    type ("integer"/"number"/"string"/"boolean"/"object"/"array"/"null",
    or a list of those), enum, const, required, properties,
    additionalProperties (bool or schema), items, minimum, maximum, anyOf,
    and $ref into #/$defs.

On top of the structural schema it cross-checks an invariant a per-key
schema cannot express: histogram bucket counts must add up to the
histogram count.

Additionally, every key in the document's "metrics" object must appear in
the docs/METRICS.md catalogue (placeholder rows like `serve.requests.<kind>`
match by prefix) — the same tri-directional code/docs/schema consistency
spotbid-lint enforces (rule M), extended here to the emitted artifacts.

Usage:
    python3 tools/check_bench_json.py BENCH_file.json [schema.json]

Exit code 0 when the document validates, 1 with one line per violation
otherwise.
"""

from __future__ import annotations

import json
import os
import re
import sys

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    # bool is an int subclass in Python; a JSON true is not an integer.
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
    "null": lambda v: v is None,
}


def _resolve_ref(ref: str, root: dict) -> dict:
    if not ref.startswith("#/"):
        raise ValueError(f"unsupported $ref: {ref}")
    node = root
    for part in ref[2:].split("/"):
        node = node[part]
    return node


def validate(value, schema: dict, root: dict, path: str, errors: list[str]) -> None:
    # Keywords are conjunctive (draft 2019 semantics): a $ref or anyOf does
    # NOT shadow its siblings, so a schema may both reference a shared $def
    # and tighten it, or discriminate variants with anyOf while the common
    # required/properties keep applying.
    if "$ref" in schema:
        validate(value, _resolve_ref(schema["$ref"], root), root, path, errors)

    if "anyOf" in schema:
        candidates = []
        matched = False
        for option in schema["anyOf"]:
            attempt: list[str] = []
            validate(value, option, root, path, attempt)
            if not attempt:
                matched = True
                break
            candidates.append(attempt)
        if not matched:
            # None matched: report the closest option (fewest violations).
            closest = min(candidates, key=len)
            errors.append(f"{path}: matched no anyOf option; closest option failed with:")
            errors.extend("  " + e for e in closest)
            return

    if "const" in schema and value != schema["const"]:
        errors.append(f"{path}: expected {schema['const']!r}, got {value!r}")
        return
    if "enum" in schema and value not in schema["enum"]:
        errors.append(f"{path}: {value!r} not one of {schema['enum']}")
        return

    if "type" in schema:
        allowed = schema["type"]
        if isinstance(allowed, str):
            allowed = [allowed]
        if not any(_TYPE_CHECKS[t](value) for t in allowed):
            errors.append(f"{path}: expected type {'/'.join(allowed)}, got {type(value).__name__}")
            return

    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if "minimum" in schema and value < schema["minimum"]:
            errors.append(f"{path}: {value} below minimum {schema['minimum']}")
        if "maximum" in schema and value > schema["maximum"]:
            errors.append(f"{path}: {value} above maximum {schema['maximum']}")

    if isinstance(value, dict):
        for key in schema.get("required", []):
            if key not in value:
                errors.append(f"{path}: missing required key {key!r}")
        properties = schema.get("properties", {})
        additional = schema.get("additionalProperties", True)
        for key, child in value.items():
            child_path = f"{path}.{key}" if path else key
            if key in properties:
                validate(child, properties[key], root, child_path, errors)
            elif additional is False:
                errors.append(f"{path}: unexpected key {key!r}")
            elif isinstance(additional, dict):
                validate(child, additional, root, child_path, errors)

    if isinstance(value, list) and "items" in schema:
        for i, item in enumerate(value):
            validate(item, schema["items"], root, f"{path}[{i}]", errors)


def cross_checks(doc: dict, errors: list[str]) -> None:
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        return
    for name, metric in metrics.items():
        if not isinstance(metric, dict) or "buckets" not in metric:
            continue
        bucket_total = sum(
            b.get("count", 0) for b in metric["buckets"] if isinstance(b, dict)
        )
        if bucket_total != metric.get("count"):
            errors.append(
                f"metrics.{name}: bucket counts sum to {bucket_total}, "
                f"count says {metric.get('count')}"
            )


# Catalogue rows are `| `name` | kind | ...`; placeholder rows use
# `serve.requests.<kind>` and match any metric sharing the literal prefix.
_DOC_ROW_RE = re.compile(r"^\|\s*`([A-Za-z0-9_.<>]+)`\s*\|")


def catalogue_names(doc_md_path: str) -> tuple[set[str], list[str]]:
    exact: set[str] = set()
    prefixes: list[str] = []
    with open(doc_md_path, encoding="utf-8") as f:
        for line in f:
            m = _DOC_ROW_RE.match(line.strip())
            if m is None:
                continue
            name = m.group(1)
            if "<" in name:
                prefixes.append(name.split("<", 1)[0])
            else:
                exact.add(name)
    return exact, prefixes


def catalogue_check(doc: dict, errors: list[str]) -> None:
    """Every emitted metric key must be documented in docs/METRICS.md."""
    doc_md = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          os.pardir, "docs", "METRICS.md")
    if not os.path.isfile(doc_md):
        print("note: docs/METRICS.md not found; catalogue check skipped",
              file=sys.stderr)
        return
    exact, prefixes = catalogue_names(doc_md)
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        return
    for name in sorted(metrics):
        if name not in exact and not any(name.startswith(p) for p in prefixes):
            errors.append(
                f"metrics.{name}: emitted by the bench but not documented in "
                "docs/METRICS.md — add a catalogue row (see docs/LINT.md rule M)"
            )


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    document_path = argv[1]
    schema_path = argv[2] if len(argv) == 3 else "tools/bench_schema.json"

    with open(document_path, encoding="utf-8") as f:
        doc = json.load(f)
    with open(schema_path, encoding="utf-8") as f:
        schema = json.load(f)

    errors: list[str] = []
    validate(doc, schema, schema, "", errors)
    cross_checks(doc, errors)
    catalogue_check(doc, errors)

    if errors:
        for error in errors:
            print(f"FAIL {document_path}: {error}")
        return 1
    metric_count = len(doc.get("metrics", {}))
    print(f"OK {document_path}: schema valid, {metric_count} metrics present")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
