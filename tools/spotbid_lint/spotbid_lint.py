#!/usr/bin/env python3
"""spotbid-lint — project-rule static analyzer for the spotbid library.

Off-the-shelf linters cannot check the invariants this repository's value
rests on, so this tool does:

  D — determinism.  In the deterministic layers (dist, numeric, bidding,
      provider, market, client, collective, mapreduce, workflow, and the
      serve execute paths) forbid wall-clock reads, std::rand, getenv,
      iteration over unordered containers, and unordered reductions
      (std::reduce / std::execution::par) outside the ordered-fold helpers
      in core/parallel.
        D-rand        std::rand / rand() / srand
        D-clock       *_clock::now, std::time, std::clock (allowlisted in
                      core/metrics, whose timers are dropped from the
                      deterministic snapshot subset by design)
        D-getenv      getenv outside the core/parallel + core/metrics
                      runtime toggles
        D-unordered   iteration over std::unordered_{map,set,multimap,
                      multiset} (range-for or .begin()/.cbegin()); hash
                      order feeding a fold or return value is the classic
                      silent determinism regression
        D-par-reduce  std::reduce / std::transform_reduce /
                      std::execution::par outside core/parallel's ordered
                      folds

  C — contract coverage.  Every public function declared in
      include/spotbid/{dist,provider,bidding,market,numeric} that takes a
      floating-point parameter must reach a SPOTBID_EXPECT /
      SPOTBID_REQUIRE_* check (in its inline body or its out-of-line
      definition under src/<module>/).  Coverage is reported per module and
      ratcheted against tools/spotbid_lint/baseline.json: it may only go up.
        C-uncovered   note naming each uncovered function (informational;
                      the baseline, not the note, decides the exit code)
        C-regression  a module's coverage dropped below the baseline

  M — metrics consistency.  Every metric name passed to the registry
      (Registry::global().counter/sum/gauge/histogram/timer) must appear in
      docs/METRICS.md with the same kind, and vice versa.  Dynamic
      registrations built from a literal prefix ("serve.requests." + kind)
      match catalogue placeholder rows (`serve.requests.<kind>`).
        M-undocumented   registered in code, missing from docs/METRICS.md
        M-unregistered   documented, but no registration site found
        M-misclassified  registered kind != documented kind

  S — serve concurrency discipline.  In src/serve + include/spotbid/serve:
        S-atomicptr   an AtomicPtr cell touched through anything but its
                      load()/store() API
        S-stdatomic   std::atomic<std::shared_ptr<...>> or std::atomic_load/
                      atomic_store on shared_ptr (the repo hand-rolls
                      AtomicPtr because libstdc++-12's relaxed reader
                      unlock is a formal data race; see snapshot_store.cpp)
        S-mutex       a mutex / condition_variable declared in a reader-path
                      file (snapshot_store, engine, model_snapshot) — the
                      read path must stay lock-free for readers

      The S family extends to the net layer (src/net +
      include/spotbid/net), where the discipline is "no syscalls under a
      lock, no wire bytes outside the codec":
        S-net-blocking  a blocking socket/sleep call while a lock_guard /
                        unique_lock / scoped_lock is still in scope — a
                        stalled peer must never extend a critical section
                        (condition_variable::wait is exempt: it releases
                        the lock while blocked)
        S-net-rawwire   memcpy / reinterpret_cast / bit_cast in a net-layer
                        file other than wire.{hpp,cpp} — the checked
                        encode/decode helpers are the ONLY place wire
                        bytes may be produced or consumed (kernel ABI
                        structs like sockaddr are annotated exceptions)
        S-net-epoll     a blocking wrapper / sleep / readiness poll in a
                        net-layer file that drives an epoll loop (contains
                        epoll_wait) — event callbacks run on the loop
                        thread, where one blocking call stalls every
                        connection the shard owns; only the nonblocking
                        raw syscalls on O_NONBLOCK fds are legal there

Suppressions: a deliberate exception is annotated in the source as

    // spotbid-lint: allow(D-unordered) keys() sorts before returning

on the offending line or the line directly above.  Several rules may be
listed: allow(D-unordered, S-mutex).  A reason is mandatory; a suppression
without one is itself a finding (X-suppression).

Modes: --mode libclang lexes every file with libclang (exact C++ lexer,
plus an AST pass that type-checks D-unordered matches); --mode fallback
uses the built-in regex lexer so the gate never silently disappears on a
machine without libclang; --mode auto (default) picks libclang when the
Python bindings import, else falls back loudly.  Both modes drive the same
rule engine, so their verdicts agree (enforced by tests/lint/).

Exit codes: 0 clean, 1 findings (or baseline regression), 2 usage or
environment error (e.g. --mode libclang without libclang).

See docs/LINT.md for the full rule catalogue and the baseline-ratchet
workflow.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field

RULES = {
    "D-rand": "std::rand/srand in a deterministic layer",
    "D-clock": "wall-clock read in a deterministic layer",
    "D-getenv": "getenv outside the core/parallel + core/metrics toggles",
    "D-unordered": "iteration over an unordered container in a deterministic layer",
    "D-par-reduce": "unordered reduction outside core/parallel's ordered folds",
    "C-uncovered": "public floating-point function without a contract check",
    "C-regression": "contract coverage fell below the ratcheted baseline",
    "M-undocumented": "metric registered in code but missing from docs/METRICS.md",
    "M-unregistered": "metric documented in docs/METRICS.md but never registered",
    "M-misclassified": "registered metric kind disagrees with docs/METRICS.md",
    "S-atomicptr": "AtomicPtr cell accessed outside its load()/store() API",
    "S-stdatomic": "std::atomic<shared_ptr>/atomic_load in serve (use AtomicPtr)",
    "S-mutex": "lock primitive declared on the serve reader path",
    "S-net-blocking": "blocking call while a lock is held in the net layer",
    "S-net-rawwire": "raw wire-byte manipulation outside net/wire.{hpp,cpp}",
    "S-net-epoll": "blocking call inside an epoll event-loop file",
    "X-suppression": "malformed spotbid-lint suppression (missing rule or reason)",
}

# Notes are reported but do not fail the run by themselves.
NOTE_RULES = {"C-uncovered"}

# ---------------------------------------------------------------------------
# Layer classification (paths are repo-root-relative, forward slashes).

DETERMINISTIC_LAYERS = (
    "dist", "numeric", "bidding", "provider", "market",
    "client", "collective", "mapreduce", "workflow", "portfolio",
)

# The serve layer splits: request execution against an immutable snapshot is
# deterministic; the scheduling/control plane (queue, workers, recalibration,
# store publication) is not.
SERVE_EXECUTE_PATHS = {
    "src/serve/engine.cpp",
    "src/serve/request.cpp",
    "src/serve/model_snapshot.cpp",
    "include/spotbid/serve/engine.hpp",
    "include/spotbid/serve/request.hpp",
    "include/spotbid/serve/model_snapshot.hpp",
}

CLOCK_ALLOWLIST = {"include/spotbid/core/metrics.hpp", "src/core/metrics.cpp"}
GETENV_ALLOWLIST = {
    "include/spotbid/core/parallel.hpp", "src/core/parallel.cpp",
    "include/spotbid/core/metrics.hpp", "src/core/metrics.cpp",
}
REDUCE_ALLOWLIST = {"include/spotbid/core/parallel.hpp", "src/core/parallel.cpp"}

CONTRACT_MODULES = ("dist", "provider", "bidding", "market", "numeric", "portfolio")

SERVE_READER_PATH_FILES = {
    "src/serve/snapshot_store.cpp",
    "include/spotbid/serve/snapshot_store.hpp",
    "src/serve/engine.cpp",
    "include/spotbid/serve/engine.hpp",
    "src/serve/model_snapshot.cpp",
    "include/spotbid/serve/model_snapshot.hpp",
}


def layer_of(rel: str) -> str | None:
    """'src/market/x.cpp' / 'include/spotbid/market/x.hpp' -> 'market'."""
    parts = rel.split("/")
    if len(parts) >= 3 and parts[0] == "src":
        return parts[1]
    if len(parts) >= 4 and parts[0] == "include" and parts[1] == "spotbid":
        return parts[2]
    return None


def is_deterministic_layer(rel: str) -> bool:
    if rel in SERVE_EXECUTE_PATHS:
        return True
    return layer_of(rel) in DETERMINISTIC_LAYERS


def is_serve_file(rel: str) -> bool:
    return layer_of(rel) == "serve"


def is_net_file(rel: str) -> bool:
    return layer_of(rel) == "net"


def contract_module(rel: str) -> str | None:
    lay = layer_of(rel)
    return lay if lay in CONTRACT_MODULES else None


# ---------------------------------------------------------------------------
# Lexing.

@dataclass
class Token:
    kind: str  # "id", "num", "str", "punct"
    text: str
    line: int


@dataclass
class Suppression:
    line: int
    rules: tuple[str, ...]
    reason: str
    used: bool = False


@dataclass
class FileScan:
    rel: str
    tokens: list[Token]
    suppressions: list[Suppression]
    bad_suppressions: list[int] = field(default_factory=list)


_SUPPRESS_RE = re.compile(
    r"spotbid-lint:\s*allow\(\s*([A-Za-z0-9_,\-\s]*?)\s*\)\s*(.*)")

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<line_comment>//[^\n]*)
    | (?P<block_comment>/\*.*?\*/)
    | (?P<raw_str>R"(?P<delim>[^()\s\\]{0,16})\(.*?\)(?P=delim)")
    | (?P<str>"(?:[^"\\\n]|\\.)*")
    | (?P<char>'(?:[^'\\\n]|\\.)*')
    | (?P<num>\.?\d(?:[\w.]|[eEpP][+-])*)
    | (?P<id>[A-Za-z_]\w*)
    | (?P<punct2>::|->|\.\.\.|<<|>>|\+\+|--|&&|\|\|)
    | (?P<punct>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def _record_comment(text: str, line: int, out: FileScan) -> None:
    m = _SUPPRESS_RE.search(text)
    if m is None:
        return
    rules = tuple(r.strip() for r in m.group(1).split(",") if r.strip())
    reason = m.group(2).strip().rstrip("*/").strip()
    if not rules or any(r not in RULES for r in rules) or not reason:
        out.bad_suppressions.append(line)
        return
    out.suppressions.append(Suppression(line=line, rules=rules, reason=reason))


def lex_fallback(rel: str, text: str) -> FileScan:
    """Regex lexer: comments/strings/identifiers/punctuation with line
    numbers, preprocessor directives dropped, suppression comments parsed."""
    scan = FileScan(rel=rel, tokens=[], suppressions=[])

    # Drop preprocessor directives (with continuations), preserving newlines
    # so line numbers stay true.
    def blank_directive(m: re.Match) -> str:
        return "\n" * m.group(0).count("\n")

    text = re.sub(r"^[ \t]*#(?:[^\n\\]|\\\n?)*", blank_directive, text, flags=re.M)

    line = 1
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        tok = m.group(0)
        if kind in ("line_comment", "block_comment"):
            _record_comment(tok, line, scan)
        elif kind == "str" or kind == "raw_str":
            scan.tokens.append(Token("str", tok, line))
        elif kind == "id":
            scan.tokens.append(Token("id", tok, line))
        elif kind == "num":
            scan.tokens.append(Token("num", tok, line))
        elif kind in ("punct", "punct2"):
            scan.tokens.append(Token("punct", tok, line))
        elif kind == "char":
            scan.tokens.append(Token("str", tok, line))
        if kind != "delim":
            line += tok.count("\n")
    return scan


# --- libclang mode ---------------------------------------------------------

def libclang_available() -> bool:
    try:
        import clang.cindex  # noqa: F401
        clang.cindex.Index.create()
        return True
    except Exception:
        return False


def lex_libclang(rel: str, path: str, text: str, include_dir: str) -> FileScan:
    """Lex with libclang's tokenizer and run the same rule engine over the
    result. Token kinds map onto the fallback lexer's; an extra AST pass
    afterwards type-checks range-for statements (see clang_unordered_lines).
    """
    import clang.cindex as ci

    scan = FileScan(rel=rel, tokens=[], suppressions=[])
    index = ci.Index.create()
    tu = index.parse(
        path,
        args=["-std=c++20", f"-I{include_dir}", "-fsyntax-only"],
        options=ci.TranslationUnit.PARSE_DETAILED_PROCESSING_RECORD,
    )
    kind_map = {
        ci.TokenKind.IDENTIFIER: "id",
        ci.TokenKind.KEYWORD: "id",
        ci.TokenKind.LITERAL: None,  # decided by spelling below
        ci.TokenKind.PUNCTUATION: "punct",
        ci.TokenKind.COMMENT: "comment",
    }
    in_directive_line = -1
    for tok in tu.get_tokens(extent=tu.cursor.extent):
        line = tok.location.line
        spelling = tok.spelling
        kind = kind_map.get(tok.kind)
        if tok.kind == ci.TokenKind.COMMENT:
            _record_comment(spelling, line, scan)
            continue
        # Drop preprocessor directive tokens, as the fallback lexer does.
        if spelling == "#" and (not scan.tokens or scan.tokens[-1].line < line):
            in_directive_line = line
            continue
        if line == in_directive_line:
            continue
        if kind is None:  # literal
            kind = "str" if spelling[:1] in "\"'R" and "\"" in spelling else "num"
        scan.tokens.append(Token(kind, spelling, line))
    return scan


def clang_unordered_lines(path: str, include_dir: str) -> set[int] | None:
    """AST pass: lines of range-for statements whose range expression's type
    names an unordered container. Returns None when the parse failed."""
    try:
        import clang.cindex as ci
    except Exception:
        return None
    try:
        index = ci.Index.create()
        tu = index.parse(path, args=["-std=c++20", f"-I{include_dir}"])
    except Exception:
        return None
    lines: set[int] = set()

    def visit(cursor) -> None:
        if cursor.kind == ci.CursorKind.CXX_FOR_RANGE_STMT:
            for child in cursor.get_children():
                type_name = child.type.spelling or ""
                if "unordered_map" in type_name or "unordered_set" in type_name \
                        or "unordered_multimap" in type_name \
                        or "unordered_multiset" in type_name:
                    lines.add(cursor.location.line)
                    break
        for child in cursor.get_children():
            visit(child)

    visit(tu.cursor)
    return lines


# ---------------------------------------------------------------------------
# Findings and suppression matching.

@dataclass
class Finding:
    rel: str
    line: int
    rule: str
    message: str

    def format(self) -> str:
        sev = "note" if self.rule in NOTE_RULES else "error"
        return f"{self.rel}:{self.line}: {sev}: [{self.rule}] {self.message}"


def apply_suppressions(findings: list[Finding], scans: dict[str, FileScan]) -> list[Finding]:
    """Drop findings covered by an allow() on the same or preceding line."""
    kept: list[Finding] = []
    for f in findings:
        scan = scans.get(f.rel)
        suppressed = False
        if scan is not None:
            for sup in scan.suppressions:
                if f.rule in sup.rules and sup.line in (f.line, f.line - 1):
                    sup.used = True
                    suppressed = True
                    break
        if not suppressed:
            kept.append(f)
    return kept


# ---------------------------------------------------------------------------
# Rule D — determinism.

UNORDERED_TYPES = {
    "unordered_map", "unordered_set", "unordered_multimap", "unordered_multiset",
}

CLOCK_IDS = {"steady_clock", "system_clock", "high_resolution_clock"}


def collect_unordered_names(tokens: list[Token]) -> set[str]:
    """Names of variables/members/aliases declared with an unordered
    container type in this file (token-level approximation)."""
    names: set[str] = set()
    aliases: set[str] = set(UNORDERED_TYPES)
    i = 0
    n = len(tokens)
    while i < n:
        t = tokens[i]
        # using Alias = ... unordered_map ... ;
        if t.kind == "id" and t.text == "using" and i + 2 < n \
                and tokens[i + 1].kind == "id" and tokens[i + 2].text == "=":
            j = i + 3
            is_unordered = False
            while j < n and tokens[j].text != ";":
                if tokens[j].text in aliases:
                    is_unordered = True
                j += 1
            if is_unordered:
                aliases.add(tokens[i + 1].text)
            i = j
            continue
        if t.kind == "id" and t.text in aliases and t.text in UNORDERED_TYPES:
            # std::unordered_map<K, V> name   — skip template args, take the
            # next identifier at angle-depth 0.
            j = i + 1
            depth = 0
            while j < n:
                tj = tokens[j]
                if tj.text == "<":
                    depth += 1
                elif tj.text == ">":
                    depth -= 1
                    if depth <= 0:
                        j += 1
                        break
                elif tj.text == ">>":
                    depth -= 2
                    if depth <= 0:
                        j += 1
                        break
                elif depth == 0 and tj.text in (";", "(", ")", "{", "}"):
                    break
                j += 1
            while j < n and tokens[j].text in ("&", "*", "const"):
                j += 1
            if j < n and tokens[j].kind == "id":
                names.add(tokens[j].text)
            i = j
            continue
        # Alias declared elsewhere used as a type:  MapAlias name;
        if t.kind == "id" and t.text in aliases and t.text not in UNORDERED_TYPES:
            if i + 1 < n and tokens[i + 1].kind == "id":
                names.add(tokens[i + 1].text)
        i += 1
    return names


def check_determinism(scan: FileScan, ast_unordered: set[int] | None) -> list[Finding]:
    rel = scan.rel
    if not is_deterministic_layer(rel):
        return []
    toks = scan.tokens
    n = len(toks)
    out: list[Finding] = []

    def prev(i: int) -> Token | None:
        return toks[i - 1] if i > 0 else None

    def prev2(i: int) -> Token | None:
        return toks[i - 2] if i > 1 else None

    unordered_names = collect_unordered_names(toks)

    for i, t in enumerate(toks):
        if t.kind != "id":
            continue
        nxt = toks[i + 1].text if i + 1 < n else ""
        p1, p2 = prev(i), prev2(i)
        std_qualified = p1 is not None and p1.text == "::" and p2 is not None and p2.text == "std"
        member = p1 is not None and p1.text in (".", "->")

        if t.text in ("rand", "srand"):
            if std_qualified or (nxt == "(" and not member and (p1 is None or p1.text != "::")):
                out.append(Finding(rel, t.line, "D-rand",
                                   f"{t.text}() is banned on deterministic paths; "
                                   "use numeric::Rng with a derived seed"))
        elif t.text == "now" and p1 is not None and p1.text == "::" \
                and p2 is not None and (p2.text in CLOCK_IDS or p2.text.endswith("_clock")):
            if rel not in CLOCK_ALLOWLIST:
                out.append(Finding(rel, t.line, "D-clock",
                                   f"{p2.text}::now() on a deterministic path; wall time "
                                   "belongs in core/metrics timers only"))
        elif t.text in ("time", "clock") and std_qualified and nxt == "(":
            if rel not in CLOCK_ALLOWLIST:
                out.append(Finding(rel, t.line, "D-clock",
                                   f"std::{t.text}() on a deterministic path"))
        elif t.text == "getenv" and nxt == "(":
            if rel not in GETENV_ALLOWLIST:
                out.append(Finding(rel, t.line, "D-getenv",
                                   "getenv outside the core/parallel + core/metrics "
                                   "runtime toggles makes results environment-dependent"))
        elif t.text in ("reduce", "transform_reduce") and std_qualified and nxt == "(":
            if rel not in REDUCE_ALLOWLIST:
                out.append(Finding(rel, t.line, "D-par-reduce",
                                   f"std::{t.text} folds in unspecified order; use the "
                                   "ordered folds in core/parallel.hpp"))
        elif t.text in ("par", "par_unseq", "unseq") and p1 is not None and p1.text == "::" \
                and p2 is not None and p2.text == "execution":
            if rel not in REDUCE_ALLOWLIST:
                out.append(Finding(rel, t.line, "D-par-reduce",
                                   f"std::execution::{t.text} on a deterministic path"))
        elif t.text in ("begin", "cbegin") and member and nxt == "(":
            base = p2
            if base is not None and base.kind == "id" and base.text in unordered_names:
                out.append(Finding(rel, t.line, "D-unordered",
                                   f"iterating unordered container '{base.text}' — hash "
                                   "order is not part of the determinism contract"))

    # Range-for over an unordered container: for ( ... : <range-expr> )
    i = 0
    while i < n:
        if toks[i].kind == "id" and toks[i].text == "for" and i + 1 < n and toks[i + 1].text == "(":
            depth = 0
            colon = -1
            j = i + 1
            while j < n:
                tj = toks[j].text
                if tj == "(":
                    depth += 1
                elif tj == ")":
                    depth -= 1
                    if depth == 0:
                        break
                elif tj == ":" and depth == 1 and colon < 0:
                    colon = j
                j += 1
            if colon > 0:
                range_tokens = toks[colon + 1:j]
                hit = any(
                    (tk.kind == "id" and (tk.text in unordered_names or tk.text in UNORDERED_TYPES))
                    for tk in range_tokens)
                if hit:
                    out.append(Finding(rel, toks[i].line, "D-unordered",
                                       "range-for over an unordered container — hash order "
                                       "is not part of the determinism contract"))
            i = j
            continue
        i += 1

    # AST refinement (libclang mode): add type-checked range-for hits the
    # token pass could not see (e.g. the container was declared in another
    # file behind `auto&`). Lines already reported are not duplicated.
    if ast_unordered:
        reported = {f.line for f in out if f.rule == "D-unordered"}
        for line in sorted(ast_unordered):
            if line not in reported and any(t.line == line for t in toks):
                out.append(Finding(rel, line, "D-unordered",
                                   "range-for over an unordered container (type-checked) — "
                                   "hash order is not part of the determinism contract"))
    return out


# ---------------------------------------------------------------------------
# Rule S — serve concurrency discipline.

LOCK_TYPES = {"mutex", "shared_mutex", "recursive_mutex", "timed_mutex",
              "condition_variable", "condition_variable_any"}


def collect_atomicptr_names(tokens: list[Token]) -> set[str]:
    """Variables/members declared as AtomicPtr<...>."""
    names: set[str] = set()
    n = len(tokens)
    i = 0
    while i < n:
        if tokens[i].kind == "id" and tokens[i].text == "AtomicPtr":
            j = i + 1
            if j < n and tokens[j].text == "<":
                depth = 0
                while j < n:
                    if tokens[j].text == "<":
                        depth += 1
                    elif tokens[j].text == ">":
                        depth -= 1
                        if depth == 0:
                            j += 1
                            break
                    elif tokens[j].text == ">>":
                        depth -= 2
                        if depth <= 0:
                            j += 1
                            break
                    j += 1
                if j < n and tokens[j].kind == "id":
                    names.add(tokens[j].text)
        i += 1
    return names


def check_serve(scan: FileScan) -> list[Finding]:
    rel = scan.rel
    if not is_serve_file(rel):
        return []
    toks = scan.tokens
    n = len(toks)
    out: list[Finding] = []
    cell_names = collect_atomicptr_names(toks)

    atomicptr_span: list[tuple[int, int]] = []  # line span of the AtomicPtr class body
    for i, t in enumerate(toks):
        if t.kind == "id" and t.text == "AtomicPtr" and i > 0 \
                and toks[i - 1].kind == "id" and toks[i - 1].text in ("class", "struct"):
            depth = 0
            j = i
            while j < n:
                if toks[j].text == "{":
                    depth += 1
                elif toks[j].text == "}":
                    depth -= 1
                    if depth == 0:
                        break
                j += 1
            if j < n:
                atomicptr_span.append((t.line, toks[j].line))

    def inside_atomicptr(line: int) -> bool:
        return any(lo <= line <= hi for lo, hi in atomicptr_span)

    for i, t in enumerate(toks):
        if t.kind != "id":
            continue
        nxt = toks[i + 1] if i + 1 < n else None
        nxt2 = toks[i + 2] if i + 2 < n else None
        # S-atomicptr: cell.<member> with member not load/store. Only '.'
        # access is checked: cells are member objects reached by value, while
        # '->' would be a smart pointer — typically a local shared_ptr whose
        # name shadows a cell (publish()'s `snapshot` parameter).
        if t.text in cell_names and nxt is not None and nxt.text == "." \
                and nxt2 is not None and nxt2.kind == "id" \
                and nxt2.text not in ("load", "store"):
            out.append(Finding(rel, t.line, "S-atomicptr",
                               f"AtomicPtr cell '{t.text}' accessed via '.{nxt2.text}'; "
                               "only load()/store() are race-safe"))
        # S-stdatomic: std::atomic<std::shared_ptr<...>> or atomic_load/store.
        elif t.text == "atomic" and nxt is not None and nxt.text == "<":
            j = i + 2
            depth = 1
            inner = []
            while j < n and depth > 0:
                if toks[j].text == "<":
                    depth += 1
                elif toks[j].text == ">":
                    depth -= 1
                elif toks[j].text == ">>":
                    depth -= 2
                if depth > 0:
                    inner.append(toks[j].text)
                j += 1
            if "shared_ptr" in inner and not inside_atomicptr(t.line):
                out.append(Finding(rel, t.line, "S-stdatomic",
                                   "std::atomic<std::shared_ptr> is banned in serve "
                                   "(libstdc++-12 reader unlock race); use AtomicPtr"))
        elif t.text in ("atomic_load", "atomic_store", "atomic_exchange") and nxt is not None \
                and nxt.text in ("(", "<"):
            out.append(Finding(rel, t.line, "S-stdatomic",
                               f"std::{t.text} on shared_ptr is banned in serve; "
                               "use AtomicPtr load()/store()"))
        # S-mutex: lock primitive declared in a reader-path file.
        elif t.text in LOCK_TYPES and rel in SERVE_READER_PATH_FILES:
            if nxt is not None and nxt.kind == "id":  # "std::mutex writer;"
                out.append(Finding(rel, t.line, "S-mutex",
                                   f"'{t.text} {nxt.text}' declared on the serve reader "
                                   "path; readers must never take a lock"))
    return out


# The wire codec is the one sanctioned home for byte-level encoding; every
# other net file must go through its checked helpers.
NET_WIRE_FILES = {"src/net/wire.cpp", "include/spotbid/net/wire.hpp"}

# Calls that can block on a peer (socket syscalls, this repo's stream
# wrappers, sleeps). condition_variable::wait is deliberately absent: it
# releases the lock while blocked, which is the correct pattern.
NET_BLOCKING_CALLS = {
    "read", "write", "send", "recv", "accept", "connect", "poll", "select",
    "read_exact", "write_all", "receive", "ask", "sleep_for", "sleep_until",
}

NET_RAWWIRE_TOKENS = {"memcpy", "memmove", "reinterpret_cast", "bit_cast"}

# Calls banned ANYWHERE in a file that drives an epoll loop (detected by
# the literal token epoll_wait): blocking stream wrappers, sleeps, and the
# competing readiness APIs. Event callbacks run on the loop thread — one
# blocking call stalls every connection the shard owns. The raw syscalls
# (readv/writev/send/accept4) stay legal: on the loop's O_NONBLOCK fds
# they return EAGAIN instead of blocking.
NET_EPOLL_BANNED_CALLS = {
    "read_exact", "write_all", "receive", "ask",
    "sleep_for", "sleep_until", "select", "poll", "ppoll",
}


def check_net(scan: FileScan) -> list[Finding]:
    rel = scan.rel
    if not is_net_file(rel):
        return []
    toks = scan.tokens
    n = len(toks)
    out: list[Finding] = []

    drives_epoll = any(t.kind == "id" and t.text == "epoll_wait" for t in toks)

    # A lock_guard/unique_lock/scoped_lock declaration holds its lock until
    # the enclosing block closes; track declaration depths so a blocking
    # call is only flagged while some lock is still in scope.
    depth = 0
    lock_depths: list[int] = []
    for i, t in enumerate(toks):
        if t.kind == "punct":
            if t.text == "{":
                depth += 1
            elif t.text == "}":
                depth -= 1
                while lock_depths and lock_depths[-1] > depth:
                    lock_depths.pop()
            continue
        if t.kind != "id":
            continue
        nxt = toks[i + 1] if i + 1 < n else None
        if t.text in ("lock_guard", "unique_lock", "scoped_lock", "shared_lock") \
                and nxt is not None and nxt.text == "<":
            lock_depths.append(depth)
        elif lock_depths and t.text in NET_BLOCKING_CALLS \
                and nxt is not None and nxt.text == "(":
            out.append(Finding(rel, t.line, "S-net-blocking",
                               f"'{t.text}(...)' can block while a lock is held; "
                               "release the lock before touching the socket"))
        elif t.text in NET_RAWWIRE_TOKENS and rel not in NET_WIRE_FILES \
                and nxt is not None and nxt.text in ("(", "<"):
            out.append(Finding(rel, t.line, "S-net-rawwire",
                               f"'{t.text}' outside the wire codec; wire bytes are "
                               "produced/consumed only through wire.{hpp,cpp}'s "
                               "checked encode/decode helpers"))
        if drives_epoll and t.text in NET_EPOLL_BANNED_CALLS \
                and nxt is not None and nxt.text == "(":
            out.append(Finding(rel, t.line, "S-net-epoll",
                               f"'{t.text}(...)' in an epoll event-loop file; shard "
                               "callbacks run on the loop thread and must never "
                               "block (use the nonblocking syscalls + readiness "
                               "edges instead)"))
    return out


# ---------------------------------------------------------------------------
# Rule M — metrics consistency.

REGISTRY_KINDS = {"counter", "sum", "gauge", "histogram", "timer"}


@dataclass
class Registration:
    name: str          # literal name, or literal prefix for dynamic sites
    kind: str
    rel: str
    line: int
    is_prefix: bool


def collect_registrations(scan: FileScan) -> list[Registration]:
    """Registry::global().counter("name") / .histogram("name", bounds) /
    dynamic '"prefix." + expr' sites."""
    toks = scan.tokens
    n = len(toks)
    out: list[Registration] = []
    for i in range(n - 6):
        if not (toks[i].text == "Registry" and toks[i + 1].text == "::"
                and toks[i + 2].text == "global" and toks[i + 3].text == "("
                and toks[i + 4].text == ")" and toks[i + 5].text == "."):
            continue
        m = toks[i + 6]
        if m.kind != "id" or m.text not in REGISTRY_KINDS:
            continue
        if i + 8 >= n or toks[i + 7].text != "(":
            continue
        arg = toks[i + 8]
        if arg.kind != "str":
            continue  # non-literal first argument: nothing checkable
        name = arg.text[1:-1]
        nxt = toks[i + 9].text if i + 9 < n else ""
        is_prefix = nxt == "+"
        out.append(Registration(name=name, kind=m.text, rel=scan.rel,
                                line=arg.line, is_prefix=is_prefix))
    return out


@dataclass
class DocEntry:
    name: str      # full name, or prefix for placeholder rows
    kind: str
    line: int
    is_prefix: bool


_DOC_ROW_RE = re.compile(r"^\|\s*`([A-Za-z0-9_.<>]+)`\s*\|\s*([a-z]+)\s*\|")


def parse_metrics_doc(text: str) -> list[DocEntry]:
    entries: list[DocEntry] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        m = _DOC_ROW_RE.match(line.strip())
        if m is None:
            continue
        name, kind = m.group(1), m.group(2)
        if kind not in REGISTRY_KINDS:
            continue  # table header or a non-catalogue table
        if "<" in name:
            entries.append(DocEntry(name=name.split("<", 1)[0], kind=kind,
                                    line=lineno, is_prefix=True))
        else:
            entries.append(DocEntry(name=name, kind=kind, line=lineno, is_prefix=False))
    return entries


def check_metrics(registrations: list[Registration], doc: list[DocEntry],
                  doc_rel: str) -> list[Finding]:
    out: list[Finding] = []
    exact_doc = {e.name: e for e in doc if not e.is_prefix}
    prefix_doc = [e for e in doc if e.is_prefix]

    def doc_for(name: str) -> DocEntry | None:
        if name in exact_doc:
            return exact_doc[name]
        for e in prefix_doc:
            if name.startswith(e.name):
                return e
        return None

    for reg in registrations:
        if reg.is_prefix:
            entry = next((e for e in prefix_doc if e.name == reg.name), None)
            if entry is None:
                out.append(Finding(reg.rel, reg.line, "M-undocumented",
                                   f"dynamic metric prefix '{reg.name}<...>' has no "
                                   f"placeholder row in docs/METRICS.md"))
                continue
        else:
            entry = doc_for(reg.name)
            if entry is None:
                out.append(Finding(reg.rel, reg.line, "M-undocumented",
                                   f"metric '{reg.name}' is registered here but not "
                                   "documented in docs/METRICS.md"))
                continue
        if entry.kind != reg.kind:
            out.append(Finding(reg.rel, reg.line, "M-misclassified",
                               f"metric '{reg.name}' registered as {reg.kind} but "
                               f"documented as {entry.kind} "
                               f"(docs/METRICS.md:{entry.line})"))

    reg_exact = {r.name for r in registrations if not r.is_prefix}
    reg_prefix = {r.name for r in registrations if r.is_prefix}
    for e in doc:
        if e.is_prefix:
            if e.name not in reg_prefix and not any(n.startswith(e.name) for n in reg_exact):
                out.append(Finding(doc_rel, e.line, "M-unregistered",
                                   f"documented metric family '{e.name}<...>' has no "
                                   "registration site"))
        elif e.name not in reg_exact and not any(e.name.startswith(p) for p in reg_prefix):
            out.append(Finding(doc_rel, e.line, "M-unregistered",
                               f"documented metric '{e.name}' is never registered"))
    return out


# ---------------------------------------------------------------------------
# Rule C — contract coverage.

CPP_KEYWORDS = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof", "alignas",
    "static_assert", "decltype", "noexcept", "catch", "throw", "new", "delete",
    "case", "default", "do", "else", "goto", "try", "using", "typedef",
    "static_cast", "dynamic_cast", "const_cast", "reinterpret_cast", "assert",
    "defined", "explicit", "operator", "co_await", "co_return", "co_yield",
    # Fundamental-type tokens can precede '(' inside function-type aliases
    # (std::function<double(...)>) — never function names.
    "double", "float", "int", "auto", "void", "bool", "char", "long", "short",
    "unsigned", "signed", "wchar_t", "char8_t", "char16_t", "char32_t",
}

FLOAT_PARAM_TOKENS = {"double", "float"}


@dataclass
class FunctionDecl:
    name: str
    rel: str
    line: int
    module: str
    inline_covered: bool | None  # None = declaration only (look in src/)


def _match_forward(tokens: list[Token], i: int, opener: str, closer: str) -> int:
    """Index just past the token matching `opener` at tokens[i]."""
    depth = 0
    n = len(tokens)
    while i < n:
        t = tokens[i].text
        if t == opener:
            depth += 1
        elif t == closer:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def extract_public_float_functions(scan: FileScan, module: str) -> list[FunctionDecl]:
    """Public function declarations/definitions with a floating-point
    parameter, namespace- or class-scope, skipping detail/anonymous
    namespaces, private/protected sections, operators and pure virtuals."""
    toks = scan.tokens
    n = len(toks)
    out: list[FunctionDecl] = []

    # scope stack entries: ("ns", public?) / ("class", public?) / ("brace", _)
    scopes: list[tuple[str, bool]] = []
    i = 0
    while i < n:
        t = toks[i]
        if t.text == "{":
            scopes.append(("brace", True))
            i += 1
            continue
        if t.text == "}":
            if scopes:
                scopes.pop()
            i += 1
            continue
        if t.kind == "id" and t.text == "namespace":
            j = i + 1
            hidden = False
            name_parts = []
            while j < n and toks[j].text != "{" and toks[j].text != ";":
                if toks[j].kind == "id":
                    name_parts.append(toks[j].text)
                j += 1
            if j < n and toks[j].text == "{":
                if not name_parts or "detail" in name_parts:
                    hidden = True
                scopes.append(("ns-hidden" if hidden else "ns", True))
                i = j + 1
                continue
            i = j
            continue
        if t.kind == "id" and t.text in ("class", "struct") and i + 1 < n:
            # find '{' or ';' (forward declaration) before other structure
            j = i + 1
            while j < n and toks[j].text not in ("{", ";", "("):
                j += 1
            if j < n and toks[j].text == "{":
                scopes.append(("class", t.text == "struct"))
                i = j + 1
                continue
            i = j
            continue
        if t.kind == "id" and t.text in ("public", "private", "protected") \
                and i + 1 < n and toks[i + 1].text == ":":
            if scopes and scopes[-1][0] == "class":
                scopes[-1] = ("class", t.text == "public")
            i += 2
            continue
        if t.kind == "id" and t.text in ("using", "typedef"):
            while i < n and toks[i].text != ";":
                i += 1
            continue

        in_hidden = any(kind == "ns-hidden" for kind, _ in scopes)
        at_decl_scope = all(kind in ("ns", "ns-hidden", "class") for kind, _ in scopes)
        is_public = all(pub for kind, pub in scopes if kind == "class")

        if t.kind == "id" and at_decl_scope and t.text not in CPP_KEYWORDS \
                and not t.text.startswith("SPOTBID") and not t.text.startswith("operator") \
                and i + 1 < n and toks[i + 1].text == "(":
            # Candidate signature. Parse the parameter list.
            params_start = i + 1
            params_end = _match_forward(toks, params_start, "(", ")")
            param_toks = toks[params_start + 1:params_end - 1]
            has_float = any(p.kind == "id" and p.text in FLOAT_PARAM_TOKENS
                            for p in param_toks)
            # Walk the trailer to see how the declaration ends.
            j = params_end
            is_def = False
            skipped = False
            while j < n:
                tj = toks[j].text
                if tj == ";":
                    break
                if tj == "{":
                    is_def = True
                    break
                if tj == "=":
                    nxt = toks[j + 1].text if j + 1 < n else ""
                    if nxt in ("0", "default", "delete"):
                        skipped = True  # pure virtual / defaulted / deleted
                    break
                if tj == "(":  # e.g. noexcept(...) — skip its parens
                    j = _match_forward(toks, j, "(", ")")
                    continue
                if tj in (")", ","):  # we were inside an initializer, bail
                    skipped = True
                    break
                j += 1
            if has_float and not skipped and is_public and not in_hidden:
                if is_def:
                    body_end = _match_forward(toks, j, "{", "}")
                    body = toks[j:body_end]
                    covered = any(b.kind == "id" and b.text.startswith("SPOTBID_")
                                  for b in body)
                    out.append(FunctionDecl(t.text, scan.rel, t.line, module, covered))
                    i = body_end
                    continue
                out.append(FunctionDecl(t.text, scan.rel, t.line, module, None))
            if is_def:
                i = _match_forward(toks, j, "{", "}")
                continue
            i = j + 1
            continue
        i += 1
    return out


def collect_definition_coverage(scan: FileScan) -> dict[str, bool]:
    """name -> (any definition body in this TU contains a SPOTBID_ macro).
    Matches both free functions and Class::method definitions."""
    toks = scan.tokens
    n = len(toks)
    cover: dict[str, bool] = {}
    i = 0
    depth = 0
    while i < n:
        t = toks[i]
        if t.text == "{":
            depth += 1
            i += 1
            continue
        if t.text == "}":
            depth = max(0, depth - 1)
            i += 1
            continue
        if t.kind == "id" and t.text not in CPP_KEYWORDS and i + 1 < n \
                and toks[i + 1].text == "(":
            params_end = _match_forward(toks, i + 1, "(", ")")
            j = params_end
            found_body = False
            while j < n:
                tj = toks[j].text
                if tj == "{":
                    found_body = True
                    break
                if tj == ";" or tj == "=":
                    break
                if tj == "(":
                    j = _match_forward(toks, j, "(", ")")
                    continue
                if tj == ":":  # constructor initializer list: scan to '{'
                    k = j + 1
                    while k < n and toks[k].text not in ("{", ";"):
                        if toks[k].text == "(":
                            k = _match_forward(toks, k, "(", ")")
                        else:
                            k += 1
                    j = k
                    continue
                j += 1
            if found_body:
                body_end = _match_forward(toks, j, "{", "}")
                body = toks[j:body_end]
                covered = any(b.kind == "id" and b.text.startswith("SPOTBID_")
                              for b in body)
                cover[t.text] = cover.get(t.text, False) or covered
                i = body_end
                continue
        i += 1
    return cover


@dataclass
class ModuleCoverage:
    covered: int = 0
    total: int = 0
    uncovered: list[FunctionDecl] = field(default_factory=list)

    @property
    def fraction(self) -> float:
        return self.covered / self.total if self.total else 1.0


def check_contracts(header_scans: list[tuple[FileScan, str]],
                    src_scans: dict[str, list[FileScan]],
                    baseline: dict | None) -> tuple[list[Finding], dict[str, ModuleCoverage]]:
    coverage: dict[str, ModuleCoverage] = {m: ModuleCoverage() for m in CONTRACT_MODULES}
    # Definition coverage per module from the src TUs.
    def_cover: dict[str, dict[str, bool]] = {m: {} for m in CONTRACT_MODULES}
    for module, scans in src_scans.items():
        for scan in scans:
            for name, cov in collect_definition_coverage(scan).items():
                prev_cov = def_cover[module].get(name, False)
                def_cover[module][name] = prev_cov or cov

    findings: list[Finding] = []
    for scan, module in header_scans:
        decls = extract_public_float_functions(scan, module)
        # Also pick up inline coverage from the header's own definitions for
        # declaration-only entries (out-of-class inline definitions).
        header_defs = collect_definition_coverage(scan)
        for decl in decls:
            cov = decl.inline_covered
            if cov is None:
                cov = def_cover[module].get(decl.name, None)
                if cov is None:
                    cov = header_defs.get(decl.name, False)
            mc = coverage[module]
            mc.total += 1
            if cov:
                mc.covered += 1
            else:
                mc.uncovered.append(decl)
                findings.append(Finding(decl.rel, decl.line, "C-uncovered",
                                        f"public function '{decl.name}' takes "
                                        "floating-point parameters but reaches no "
                                        "SPOTBID_EXPECT/REQUIRE_* check"))

    if baseline is not None:
        for module, mc in coverage.items():
            base = baseline.get("modules", {}).get(module)
            if base is None or not mc.total:
                continue
            base_total = base.get("total", 0)
            base_frac = (base.get("covered", 0) / base_total) if base_total else 1.0
            if mc.fraction + 1e-9 < base_frac:
                findings.append(Finding(
                    f"include/spotbid/{module}", 0, "C-regression",
                    f"module '{module}' contract coverage {mc.covered}/{mc.total} "
                    f"({100 * mc.fraction:.1f}%) fell below the baseline "
                    f"{base.get('covered')}/{base_total} ({100 * base_frac:.1f}%); "
                    "add contracts or (for a deliberate exception) update "
                    "tools/spotbid_lint/baseline.json with --update-baseline"))
    return findings, coverage


def coverage_table(coverage: dict[str, ModuleCoverage]) -> str:
    lines = ["| module | covered | total | coverage |",
             "|---|---:|---:|---:|"]
    tot_c = tot_t = 0
    for module in CONTRACT_MODULES:
        mc = coverage[module]
        tot_c += mc.covered
        tot_t += mc.total
        lines.append(f"| {module} | {mc.covered} | {mc.total} | "
                     f"{100 * mc.fraction:.1f}% |")
    frac = tot_c / tot_t if tot_t else 1.0
    lines.append(f"| **all** | {tot_c} | {tot_t} | {100 * frac:.1f}% |")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Driver.

def discover_files(root: str) -> list[str]:
    # bench/ and tools/ are scanned too: they register metrics (rule M needs
    # the sites) but are outside every deterministic/serve/net layer, so the
    # D/C/S families skip them by layer classification.
    rels: list[str] = []
    for base in ("include/spotbid", "src", "bench", "tools"):
        top = os.path.join(root, base)
        for dirpath, _dirnames, filenames in os.walk(top):
            for fn in sorted(filenames):
                if fn.endswith((".hpp", ".cpp", ".h", ".cc")):
                    rel = os.path.relpath(os.path.join(dirpath, fn), root)
                    rels.append(rel.replace(os.sep, "/"))
    return sorted(rels)


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="spotbid-lint", description="project-rule static analyzer")
    parser.add_argument("--root", default=".", help="repository root to scan")
    parser.add_argument("--mode", choices=("auto", "libclang", "fallback"),
                        default="auto")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite tools/spotbid_lint/baseline.json with "
                             "the observed contract coverage")
    parser.add_argument("--coverage-table", metavar="PATH",
                        help="write the contract-coverage table (markdown) here")
    parser.add_argument("--list-rules", action="store_true")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress notes (C-uncovered) in the output")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, desc in RULES.items():
            kind = "note " if rule in NOTE_RULES else "error"
            print(f"{rule:<16} {kind}  {desc}")
        return 0

    root = os.path.abspath(args.root)
    if not os.path.isdir(os.path.join(root, "include", "spotbid")) \
            and not os.path.isdir(os.path.join(root, "src")):
        print(f"spotbid-lint: {root} has no include/spotbid or src tree", file=sys.stderr)
        return 2

    mode = args.mode
    if mode == "auto":
        mode = "libclang" if libclang_available() else "fallback"
        if mode == "fallback":
            print("spotbid-lint: libclang python bindings unavailable; "
                  "running in token-level fallback mode", file=sys.stderr)
    elif mode == "libclang" and not libclang_available():
        print("spotbid-lint: --mode libclang requested but clang.cindex is "
              "not importable", file=sys.stderr)
        return 2

    include_dir = os.path.join(root, "include")
    rels = discover_files(root)

    scans: dict[str, FileScan] = {}
    ast_unordered: dict[str, set[int] | None] = {}
    for rel in rels:
        path = os.path.join(root, rel)
        try:
            with open(path, encoding="utf-8") as f:
                text = f.read()
        except OSError as e:
            print(f"spotbid-lint: cannot read {rel}: {e}", file=sys.stderr)
            return 2
        if mode == "libclang":
            try:
                scans[rel] = lex_libclang(rel, path, text, include_dir)
            except Exception as e:  # never silently skip: fall back per file
                print(f"spotbid-lint: libclang lex failed for {rel} ({e}); "
                      "using fallback lexer for this file", file=sys.stderr)
                scans[rel] = lex_fallback(rel, text)
            if is_deterministic_layer(rel):
                ast_unordered[rel] = clang_unordered_lines(path, include_dir)
        else:
            scans[rel] = lex_fallback(rel, text)

    findings: list[Finding] = []

    # D + S + suppression hygiene.
    for rel, scan in scans.items():
        findings.extend(check_determinism(scan, ast_unordered.get(rel)))
        findings.extend(check_serve(scan))
        findings.extend(check_net(scan))
        for line in scan.bad_suppressions:
            findings.append(Finding(rel, line, "X-suppression",
                                    "suppression must name known rule(s) and give a "
                                    "reason: // spotbid-lint: allow(RULE) why"))

    # M — metrics consistency (skipped when the repo has no catalogue, so
    # rule-isolated fixture trees do not fail it).
    doc_rel = "docs/METRICS.md"
    doc_path = os.path.join(root, doc_rel)
    if os.path.isfile(doc_path):
        with open(doc_path, encoding="utf-8") as f:
            doc_entries = parse_metrics_doc(f.read())
        registrations = [r for scan in scans.values()
                         for r in collect_registrations(scan)]
        findings.extend(check_metrics(registrations, doc_entries, doc_rel))

    # C — contract coverage over the contract modules.
    header_scans = [(scan, contract_module(rel)) for rel, scan in scans.items()
                    if rel.startswith("include/") and contract_module(rel)]
    header_scans = [(s, m) for s, m in header_scans if m is not None]
    src_by_module: dict[str, list[FileScan]] = {m: [] for m in CONTRACT_MODULES}
    for rel, scan in scans.items():
        if rel.startswith("src/") and contract_module(rel):
            src_by_module[contract_module(rel)].append(scan)

    coverage: dict[str, ModuleCoverage] = {}
    if header_scans:
        baseline_path = os.path.join(root, "tools", "spotbid_lint", "baseline.json")
        baseline = None
        if os.path.isfile(baseline_path):
            try:
                with open(baseline_path, encoding="utf-8") as f:
                    baseline = json.load(f)
            except (OSError, json.JSONDecodeError) as e:
                print(f"spotbid-lint: cannot parse {baseline_path}: {e}", file=sys.stderr)
                return 2
        c_findings, coverage = check_contracts(header_scans, src_by_module, baseline)
        findings.extend(c_findings)

        if args.update_baseline:
            payload = {
                "comment": "contract-coverage ratchet: spotbid-lint fails when a "
                           "module's coverage drops below these numbers; "
                           "regenerate with --update-baseline",
                "modules": {m: {"covered": coverage[m].covered,
                                "total": coverage[m].total}
                            for m in CONTRACT_MODULES},
            }
            os.makedirs(os.path.dirname(baseline_path), exist_ok=True)
            with open(baseline_path, "w", encoding="utf-8") as f:
                json.dump(payload, f, indent=2)
                f.write("\n")
            print(f"spotbid-lint: baseline updated at "
                  f"{os.path.relpath(baseline_path, root)}")

        if args.coverage_table:
            with open(args.coverage_table, "w", encoding="utf-8") as f:
                f.write("# spotbid-lint contract coverage\n\n")
                f.write(coverage_table(coverage))

    findings = apply_suppressions(findings, scans)
    findings.sort(key=lambda f: (f.rel, f.line, f.rule))

    errors = [f for f in findings if f.rule not in NOTE_RULES]
    notes = [f for f in findings if f.rule in NOTE_RULES]
    for f in errors:
        print(f.format())
    if not args.quiet:
        for f in notes:
            print(f.format())

    if coverage:
        print(f"spotbid-lint: contract coverage "
              + ", ".join(f"{m}: {coverage[m].covered}/{coverage[m].total}"
                          for m in CONTRACT_MODULES if coverage[m].total))
    suppressed_count = sum(1 for scan in scans.values()
                           for sup in scan.suppressions if sup.used)
    print(f"spotbid-lint[{mode}]: {len(scans)} files, {len(errors)} error(s), "
          f"{len(notes)} note(s), {suppressed_count} suppression(s) honored")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
