#!/usr/bin/env python3
"""fairbfl-analyzer: the project's one dependency-free static analyzer.

Lexes every file of the tree once with cpplex.py, builds the project-wide
include graph and a cross-TU symbol/call graph from compile_commands.json
(declaration->definition resolution: qualified-name matching first, then
header-signature matching; unresolved edges are reported, never silently
dropped), and checks every rule of the RULES table on that one view.

Per-file match rules (token patterns; each skips its allowlisted
exempt_paths):

  raw-sync            no std::mutex / std::thread / std::lock_guard /
                      std::condition_variable (or their headers) outside
                      src/support/ -- concurrency goes through the
                      annotated support::Mutex/MutexLock/CondVar wrappers
                      or the ThreadPool, so clang -Wthread-safety can see
                      every lock in the tree.
  rng-determinism     no rand()/srand(), std::random_device, or
                      argless-seeded std engines outside support/rng --
                      all randomness derives from the experiment seed via
                      support::Rng (fixed-seed runs stay bit-for-bit).
  catch-swallow       no `catch (...)` in src/ that swallows without
                      rethrowing (or capturing via std::current_exception
                      for a later rethrow).
  simd-isolation      no x86 intrinsic headers (<immintrin.h> and
                      friends) or _mm*/__m* intrinsics outside
                      src/support/simd* -- ISA-specific code lives in
                      the lane-exact encodings behind the pinned kernels
                      (support/simd.hpp), keeping every other TU
                      portable.

Whole-program rules:

  layer-deps          ARCHITECTURE.md's "dependencies point strictly
                      downward" as a machine-checked DAG over #include
                      edges; the allowed-edge table is
                      scripts/lint/layers.json (the normative layer map).
  telemetry-hotpath   no allocation (new/malloc/containers growing), no
                      lock, no ad-hoc std::chrono::*::now(), and no throw
                      reachable from the telemetry emission roots
                      (telemetry::Span begin/close, counter_add,
                      counter_max and their helpers) -- the lock-free ring
                      guarantee.  The walk follows resolved call edges
                      into every TU and stops at the allowlisted cold
                      paths (stop_functions: buffer-full self-flush,
                      first-use adopt, label interning).
  fp-determinism      the bit-pin convention, structurally: no
                      floating-point multiply-accumulate loops outside
                      the allowlisted kernel layer (src/support/simd*,
                      src/support/vecmath*), plus every TU's compile
                      command must carry -ffp-contract=off and none of
                      -ffast-math/-funsafe-math-optimizations/
                      -fassociative-math/-Ofast.
  lock-order          the global acquires-while-holding graph built from
                      support::MutexLock sites and REQUIRES()
                      annotations, with call edges followed so transitive
                      acquisition counts; fails on cycles, on
                      acquisitions not sanctioned by the documented lock
                      hierarchy in allowlists.json, and on undocumented
                      locks (per-function Clang TSA cannot see
                      cross-function lock ordering).
  blocking-in-worker  no blocking syscalls / sleeps / condvar waits /
                      stream IO reachable from ThreadPool task bodies
                      (lambdas passed to parallel_for/parallel_chunks/
                      pool.run) outside the pool's own scheduler
                      (allowlisted scheduler_paths).
  unused-include      IWYU-lite: a project header whose own declarations
                      provide no name the including file references.

Every allowlist entry is checked too: one that no longer suppresses or
documents anything is itself a finding (check_stale_entries).

Usage:
  analyzer.py --build-dir build            # analyze the tree; exit 1 on
                                           # any finding
  analyzer.py --rule layer-deps            # restrict to one rule
  analyzer.py --self-test                  # per-rule bad/clean fixture
                                           # trees (tests/analyzer_fixtures)
  analyzer.py --graph-dump graph.json      # dump include edges, call
                                           # edges, unresolved calls,
                                           # locks, pool-task roots
  analyzer.py --explain lock-order:mutex   # where a symbol stands in a
                                           # rule's graph and why
  analyzer.py --summary-md out.md          # per-rule markdown table +
                                           # runtime (CI job summary)

Diagnostics are gcc-style `file:line:col: error: [rule] message` so
editors and CI annotate them.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from dataclasses import dataclass

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import cpplex  # noqa: E402
from cpplex import IDENT, NUMBER, PP, PUNCT, Token  # noqa: E402

LINT_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(LINT_DIR))
ALLOWLISTS_REL = "scripts/lint/allowlists.json"


@dataclass
class Finding:
    rule: str
    path: str
    line: int
    col: int
    message: str

    def __str__(self) -> str:
        return (f"{self.path}:{self.line}:{self.col}: error: "
                f"[{self.rule}] {self.message}")


def _find_matching(tokens: list[Token], start: int, open_: str,
                   close: str) -> int:
    """Index of the token closing the bracket opened at `start` (which
    must hold `open_`); len(tokens) if unbalanced."""
    depth = 0
    for k in range(start, len(tokens)):
        v = tokens[k].value
        if tokens[k].kind == PUNCT:
            if v == open_:
                depth += 1
            elif v == close:
                depth -= 1
                if depth == 0:
                    return k
    return len(tokens)


# ---------------------------------------------------------------------------
# Per-file match rules: (rel, tokens) -> [Finding]

_RAW_SYNC_TYPES = {
    "std::mutex", "std::timed_mutex", "std::recursive_mutex",
    "std::recursive_timed_mutex", "std::shared_mutex",
    "std::shared_timed_mutex", "std::thread", "std::jthread",
    "std::lock_guard", "std::unique_lock", "std::scoped_lock",
    "std::shared_lock", "std::condition_variable",
    "std::condition_variable_any", "std::call_once", "std::once_flag",
    "std::async",
}
_RAW_SYNC_HEADERS = {"<mutex>", "<thread>", "<shared_mutex>",
                     "<condition_variable>", "<future>"}


def rule_raw_sync(path: str, tokens: list[Token]) -> list[Finding]:
    out = []
    for k, t in enumerate(tokens):
        if t.kind == PP and t.value.startswith("#include"):
            header = t.value.split("#include", 1)[1].strip()
            if header in _RAW_SYNC_HEADERS:
                out.append(
                    Finding(
                        "raw-sync", path, t.line, t.col,
                        f"raw concurrency header {header}: use "
                        "support/sync.hpp (annotated Mutex/MutexLock/"
                        "CondVar) or support/parallel.hpp instead"))
        elif t.kind == IDENT:
            for name in _RAW_SYNC_TYPES:
                if t.value == name.rsplit("::", 1)[1] and \
                        cpplex.match_qualified(tokens, k, name):
                    out.append(
                        Finding(
                            "raw-sync", path, t.line, t.col,
                            f"{name} outside src/support/: the analysis "
                            "cannot see std primitives -- use the "
                            "annotated support::Mutex/MutexLock/CondVar "
                            "(support/sync.hpp) or support::ThreadPool"))
                    break
    return out


_RNG_ENGINES = {"std::mt19937", "std::mt19937_64", "std::minstd_rand",
                "std::minstd_rand0", "std::default_random_engine",
                "std::ranlux24", "std::ranlux48", "std::knuth_b"}


def rule_rng_determinism(path: str, tokens: list[Token]) -> list[Finding]:
    out = []
    for k, t in enumerate(tokens):
        if t.kind != IDENT:
            continue
        if t.value in ("rand", "srand") and k + 1 < len(tokens) \
                and tokens[k + 1].value == "(" \
                and (k == 0 or tokens[k - 1].value not in ("::", ".", "->")
                     or cpplex.match_qualified(tokens, k, "std::" + t.value)):
            out.append(
                Finding(
                    "rng-determinism", path, t.line, t.col,
                    f"{t.value}() breaks seed determinism: draw from a "
                    "support::Rng stream forked off the experiment seed"))
        elif t.value == "random_device" and \
                cpplex.match_qualified(tokens, k, "std::random_device"):
            out.append(
                Finding(
                    "rng-determinism", path, t.line, t.col,
                    "std::random_device is non-deterministic by design: "
                    "seed a support::Rng from the experiment config "
                    "instead"))
        elif t.value in {n.rsplit("::", 1)[1] for n in _RNG_ENGINES} and \
                any(cpplex.match_qualified(tokens, k, n)
                    for n in _RNG_ENGINES):
            # Flag only *argless* construction: `std::mt19937 g;`,
            # `std::mt19937()`, `std::mt19937{}` -- the default seed is a
            # process-invariant constant, which silently decouples the
            # stream from the experiment seed.  Seeded forms pass (though
            # support::Rng is still the idiomatic source).
            nxt = tokens[k + 1] if k + 1 < len(tokens) else None
            after = tokens[k + 2] if k + 2 < len(tokens) else None
            third = tokens[k + 3] if k + 3 < len(tokens) else None
            argless = False
            if nxt is not None and nxt.kind == IDENT:
                argless = after is not None and (
                    after.value in (";", ",", ")") or
                    (after.value == "(" and third is not None
                     and third.value == ")") or
                    (after.value == "{" and third is not None
                     and third.value == "}"))
            elif nxt is not None and nxt.value in ("(", "{"):
                close = ")" if nxt.value == "(" else "}"
                argless = after is not None and after.value == close
            if argless:
                out.append(
                    Finding(
                        "rng-determinism", path, t.line, t.col,
                        "argless std engine construction uses the fixed "
                        "default seed: derive the stream from the "
                        "experiment seed via support::Rng"))
    return out


_RETHROW_MARKERS = {"throw", "current_exception", "rethrow_exception",
                    "rethrow_if_nested"}


def rule_catch_swallow(path: str, tokens: list[Token]) -> list[Finding]:
    out = []
    k = 0
    while k < len(tokens):
        t = tokens[k]
        if t.kind == IDENT and t.value == "catch" and k + 1 < len(tokens) \
                and tokens[k + 1].value == "(":
            close = _find_matching(tokens, k + 1, "(", ")")
            params = tokens[k + 2:close]
            is_catch_all = any(p.kind == PUNCT and p.value == "..."
                               for p in params)
            body_open = close + 1
            if is_catch_all and body_open < len(tokens) \
                    and tokens[body_open].value == "{":
                body_close = _find_matching(tokens, body_open, "{", "}")
                body = tokens[body_open + 1:body_close]
                if not any(b.kind == IDENT and b.value in _RETHROW_MARKERS
                           for b in body):
                    out.append(
                        Finding(
                            "catch-swallow", path, t.line, t.col,
                            "catch (...) swallows the exception: rethrow "
                            "(`throw;`), capture it via "
                            "std::current_exception for a later rethrow, "
                            "or narrow the handler to the types you can "
                            "actually handle"))
                k = body_open
                continue
        k += 1
    return out


# x86 intrinsic headers (umbrella and per-ISA) -- none may appear outside
# the dispatch layer.
_SIMD_HEADERS = {
    "<immintrin.h>", "<x86intrin.h>", "<x86gprintrin.h>", "<xmmintrin.h>",
    "<emmintrin.h>", "<pmmintrin.h>", "<tmmintrin.h>", "<smmintrin.h>",
    "<nmmintrin.h>", "<wmmintrin.h>", "<ammintrin.h>",
}

_SIMD_IDENT_PREFIXES = ("_mm_", "_mm256_", "_mm512_", "__m128", "__m256",
                        "__m512")


def rule_simd_isolation(path: str, tokens: list[Token]) -> list[Finding]:
    out = []
    for t in tokens:
        if t.kind == PP and t.value.startswith("#include"):
            header = t.value.split("#include", 1)[1].strip()
            if header in _SIMD_HEADERS:
                out.append(
                    Finding(
                        "simd-isolation", path, t.line, t.col,
                        f"x86 intrinsic header {header} outside "
                        "src/support/simd*: ISA-specific code lives "
                        "in the lane-exact encodings behind the pinned "
                        "kernels (support/simd.hpp) so every other TU "
                        "stays portable"))
        elif t.kind == IDENT and t.value.startswith(_SIMD_IDENT_PREFIXES):
            out.append(
                Finding(
                    "simd-isolation", path, t.line, t.col,
                    f"x86 intrinsic `{t.value}` outside src/support/simd*: "
                    "add the kernel to support/simd.hpp with a "
                    "lane-exact encoding instead of open-coding ISA "
                    "instructions here"))
    return out


MATCH_RULES = {
    "raw-sync": rule_raw_sync,
    "rng-determinism": rule_rng_determinism,
    "catch-swallow": rule_catch_swallow,
    "simd-isolation": rule_simd_isolation,
}


# ---------------------------------------------------------------------------
# Shared vocabularies of the whole-program rules

# Identifier-followed-by-'(' shapes that are control flow, operators or
# specifiers, not calls or function names.
_STOPWORDS = {
    "if", "for", "while", "switch", "catch", "return", "sizeof", "alignof",
    "alignas", "decltype", "static_assert", "new", "delete", "throw",
    "noexcept", "assert", "operator", "defined", "constexpr", "consteval",
    "constinit", "requires", "explicit",
}

# The telemetry emission roots of src/telemetry/: the Span
# constructor/close pair and the counter emitters, plus the helpers the
# hot path is composed of (kept explicit so a rename breaks the rule
# rather than silently un-scoping it).
_HOTPATH_ROOTS = {"Span", "close", "counter_add", "counter_max", "put",
                  "make_record", "local_buffer", "next_span_id",
                  "current_context"}

_HOTPATH_FORBIDDEN_CALLS = {
    "malloc", "calloc", "realloc", "aligned_alloc", "strdup",
    "push_back", "emplace", "emplace_back", "insert", "resize", "reserve",
    "append", "assign",
    "MutexLock", "lock_guard", "unique_lock", "scoped_lock", "lock",
    "Lock", "try_lock", "TryLock", "wait",
    "now",
}

# Blocking call names for blocking-in-worker.  Mutex acquisition is
# deliberately absent (workers may take leaf locks); this targets sleeps,
# condvar waits, joins, process spawns, and file/socket IO.
_BLOCKING_CALLS = {
    "sleep_for", "sleep_until", "sleep", "usleep", "nanosleep",
    "wait", "wait_for", "wait_until", "join",
    "system", "popen", "fork", "execv", "execvp",
    "fopen", "fread", "fwrite", "fgets", "fscanf", "getline",
    "accept", "recv", "recvfrom", "send", "sendto", "connect", "listen",
    "select", "poll", "epoll_wait",
}

# Stream types whose mere construction opens a file: flagged token-level
# because `std::ofstream f(path)` lexes as a declaration, not a call.
_BLOCKING_TYPES = {"ifstream", "ofstream", "fstream"}

# Names assumed external (std/libc) when no project definition exists, so
# they don't pollute the unresolved-edge report.  Consulted only after
# definition lookup fails, so a project function may shadow any of these.
_EXTERNAL_NAMES = {
    "abs", "fabs", "sqrt", "exp", "log", "log2", "pow", "floor", "ceil",
    "round", "lround", "fmod", "isnan", "isinf", "isfinite", "memcpy",
    "memset", "memcmp", "memmove", "strcmp", "strncmp", "strlen", "snprintf",
    "printf", "fprintf", "sprintf", "fputs", "puts", "fflush", "exit",
    "getenv", "strtol", "strtod", "atoi", "min", "max", "swap", "move",
    "forward", "make_unique", "make_shared", "make_pair", "make_tuple",
    "to_string", "stoi", "stod", "stoul", "stoull", "sort", "stable_sort",
    "nth_element", "partial_sort", "fill", "copy", "copy_n", "transform",
    "accumulate", "iota", "distance", "advance", "next", "prev",
    "lower_bound", "upper_bound", "binary_search", "unique", "remove",
    "remove_if", "find_if", "any_of", "all_of", "none_of", "count_if",
    "max_element", "min_element", "minmax_element", "shuffle", "clamp",
    "hash", "tie", "get_if", "holds_alternative", "visit", "declval",
    "tuple_size", "from_chars", "to_chars", "isalpha", "isdigit", "isspace",
    "tolower", "toupper", "assert", "abort", "terminate", "setw",
    "setprecision", "quoted", "flush", "endl", "getline", "push", "pop",
    "top", "emplace_hint", "substr", "compare", "rfind", "find_first_of",
    "find_last_of", "starts_with", "ends_with", "c_str", "str", "good",
    "fail", "eof", "is_open", "open", "close", "rdbuf", "seekg", "tellg",
    "write", "read", "at", "notify_one", "notify_all", "test_and_set",
    "time_since_epoch", "duration_cast", "nanoseconds", "microseconds",
    "milliseconds", "seconds", "thread", "numeric_limits", "lowest",
    "epsilon", "infinity", "quiet_NaN", "signaling_NaN", "denorm_min",
    "now",
}

# Member names of std vocabulary types (atomics, containers, optionals)
# that never resolve to same-named project functions when building graph
# edges -- `g_enabled.load(...)` is std::atomic::load, not Dump::load, and
# `factories_.contains(name)` is std::map::contains, not the registry's.
# Forbidden-call detection is unaffected (it matches call sites directly,
# so `.lock()` still trips telemetry-hotpath).
_EDGE_IGNORED = {
    "load", "store", "exchange", "compare_exchange_strong",
    "compare_exchange_weak", "fetch_add", "fetch_sub", "find", "count",
    "begin", "end", "size", "empty", "clear", "erase", "get", "reset",
    "release", "data", "max", "min", "value_or", "has_value", "front",
    "back", "contains",
}

# Type/specifier keywords that must not be recorded as declared names.
_NOT_DECL_NAMES = {
    "int", "long", "short", "unsigned", "signed", "char", "double",
    "float", "bool", "void", "auto", "const", "constexpr", "consteval",
    "constinit", "static", "inline", "extern", "mutable", "volatile",
    "virtual", "explicit", "noexcept", "override", "final", "public",
    "private", "protected", "operator", "typename", "template", "class",
    "struct", "enum", "union", "friend", "using", "namespace", "typedef",
    "register", "thread_local", "wchar_t", "char8_t", "char16_t",
    "char32_t", "size_t", "this", "requires", "concept", "default",
}

# Tokens a `double`/`float` declarator may carry between the type keyword
# and the declared identifier.
_FP_DECL_SKIP = {"const", "&", "&&", "*", ">", ">>", "...",
                 "volatile", "restrict"}

_ALLCAPS_RE = re.compile(r"^[A-Z][A-Z0-9_]*$")
_PP_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


# ---------------------------------------------------------------------------
# Per-file fact extraction (pure: tokens in, fact dict out)

def _loop_mask(body):
    """Boolean mask over `body` marking tokens inside for/while/do bodies."""
    n = len(body)
    mask = [False] * n
    k = 0
    while k < n:
        t = body[k]
        if t.kind == IDENT and t.value in ("for", "while") and k + 1 < n \
                and body[k + 1].value == "(":
            close = _find_matching(body, k + 1, "(", ")")
            b = close + 1
            if b < n and body[b].value == "{":
                e = _find_matching(body, b, "{", "}")
            else:
                e = b
                while e < n and body[e].value != ";":
                    if body[e].value == "{":
                        e = _find_matching(body, e, "{", "}")
                    elif body[e].value == "(":
                        e = _find_matching(body, e, "(", ")")
                    e += 1
            for i in range(b, min(e + 1, n)):
                mask[i] = True
            k = close + 1
            continue
        if t.kind == IDENT and t.value == "do" and k + 1 < n \
                and body[k + 1].value == "{":
            e = _find_matching(body, k + 1, "{", "}")
            for i in range(k + 1, min(e + 1, n)):
                mask[i] = True
            k += 2
            continue
        k += 1
    return mask


def _match_mac(body, k):
    """Multiply-accumulate matcher at a `+=`/`-=` token: returns the
    identifier set of the statement if the right-hand side has a
    top-level `*` (the FMA-eligible shape), else None."""
    idents = set()
    i = k - 1  # walk the lvalue leftwards
    while i >= 0:
        t = body[i]
        if t.kind == PUNCT and t.value == "]":
            depth = 0
            while i >= 0:
                if body[i].value == "]":
                    depth += 1
                elif body[i].value == "[":
                    depth -= 1
                    if depth == 0:
                        break
                if body[i].kind == IDENT:
                    idents.add(body[i].value)
                i -= 1
            i -= 1
            continue
        if t.kind == IDENT:
            idents.add(t.value)
            if i - 1 >= 0 and body[i - 1].value in (".", "->", "::"):
                i -= 2
                continue
            break
        break
    top_mul = False
    fp_literal = False
    pd = bd = 0
    j = k + 1
    n = len(body)
    while j < n:
        t = body[j]
        v = t.value
        if t.kind == PUNCT:
            if v == "(":
                pd += 1
            elif v == ")":
                pd -= 1
                if pd < 0:
                    break
            elif v == "[":
                bd += 1
            elif v == "]":
                bd -= 1
            elif pd == 0 and bd == 0:
                if v in (";", ",", "{", "}"):
                    break
                if v == "*":
                    prev = body[j - 1]
                    if prev.kind in (IDENT, NUMBER) or \
                            prev.value in (")", "]"):
                        top_mul = True
        elif t.kind == IDENT:
            idents.add(v)
        elif t.kind == NUMBER:
            low = v.lower()
            if not low.startswith("0x") and \
                    ("." in low or "e" in low or low.endswith("f")):
                fp_literal = True
        j += 1
    if not top_mul:
        return None
    return {"line": body[k].line, "col": body[k].col,
            "idents": sorted(idents), "fp_literal": fp_literal}


def _analyze_body(body, requires):
    """One pass over a function body: calls, new/throw sites, MutexLock
    acquisitions with a scope-tracked lock stack (acquires-while-holding
    and calls-while-holding), MAC loops, blocking stream types."""
    res = {"calls": [], "news": [], "acquires": [], "held": [],
           "held_calls": [], "macs": [], "blocking_tokens": []}
    mask = _loop_mask(body)
    lockstack = [(r, -1) for r in requires]
    depth = 0
    n = len(body)
    k = 0
    while k < n:
        t = body[k]
        if t.kind == PUNCT:
            if t.value == "{":
                depth += 1
            elif t.value == "}":
                depth -= 1
                while lockstack and lockstack[-1][1] > depth:
                    lockstack.pop()
            elif t.value in ("+=", "-=") and mask[k]:
                mac = _match_mac(body, k)
                if mac is not None:
                    res["macs"].append(mac)
            k += 1
            continue
        if t.kind != IDENT:
            k += 1
            continue
        if t.value in ("new", "throw"):
            res["news"].append([t.line, t.col, t.value])
            k += 1
            continue
        if t.value in _BLOCKING_TYPES:
            res["blocking_tokens"].append([t.line, t.col, t.value])
            k += 1
            continue
        if t.value == "MutexLock" and k + 1 < n \
                and body[k + 1].kind == IDENT and k + 2 < n \
                and body[k + 2].value == "(":
            close = _find_matching(body, k + 2, "(", ")")
            lockname = None
            for g in reversed(body[k + 3:close]):
                if g.kind == IDENT:
                    lockname = g.value
                    break
            if lockname:
                res["acquires"].append([t.line, t.col, lockname])
                for holder, _d in lockstack:
                    res["held"].append([holder, t.line, t.col, lockname])
                lockstack.append((lockname, depth))
            k = close + 1
            continue
        if t.value not in _STOPWORDS and k + 1 < n \
                and body[k + 1].value == "(":
            qname = cpplex.qualified_at(body, k)
            first = k - 2 * (len(qname.split("::")) - 1)
            member = first > 0 and body[first - 1].value in (".", "->")
            res["calls"].append([t.line, t.col, t.value, qname,
                                 1 if member else 0])
            for holder, _d in lockstack:
                res["held_calls"].append([holder, t.line, t.col, t.value])
        k += 1
    return res


def _extract_functions(tokens):
    """Heuristic function-definition extractor: every `name(...) ...
    {body}` shape, inline class methods included.  The specifier gap
    between `)` and `{` is scanned so REQUIRES() annotations seed the lock
    stack.  Yields fact dicts."""
    k = 0
    n = len(tokens)
    while k < n:
        t = tokens[k]
        if t.kind == IDENT and t.value not in _STOPWORDS and k + 1 < n \
                and tokens[k + 1].value == "(":
            qname = cpplex.qualified_at(tokens, k)
            close = _find_matching(tokens, k + 1, "(", ")")
            # Scan the gap between `)` and a possible `{`: specifiers,
            # ctor init lists (nested parens consumed whole), trailing
            # return types.  A top-level `;` or `=` disqualifies
            # (declaration, `= default`, assignment...).
            j = close + 1
            is_definition = True
            requires = []
            while j < n:
                v = tokens[j].value
                if v == "{":
                    break
                if tokens[j].kind == PUNCT and v in (";", "="):
                    is_definition = False
                    break
                if tokens[j].kind == IDENT and v == "REQUIRES" \
                        and j + 1 < n and tokens[j + 1].value == "(":
                    gend = _find_matching(tokens, j + 1, "(", ")")
                    for g in tokens[j + 2:gend]:
                        if g.kind == IDENT and g.value != "this":
                            requires.append(g.value)
                    j = gend + 1
                    continue
                if tokens[j].kind == PUNCT and v == "(":
                    j = _find_matching(tokens, j, "(", ")") + 1
                    continue
                j += 1
            if is_definition and j < n and tokens[j].value == "{":
                body_close = _find_matching(tokens, j, "{", "}")
                body = tokens[j + 1:body_close]
                fn = {"name": qname.rsplit("::", 1)[-1], "qname": qname,
                      "line": t.line, "col": t.col, "requires": requires}
                fn.update(_analyze_body(body, requires))
                yield fn
                k = j + 1
                continue
        k += 1


def _extract_pool_tasks(tokens):
    """Lambda literals passed to parallel_for/parallel_chunks or to a
    `.run(`/`->run(` member whose receiver names a pool: the ThreadPool
    task bodies that blocking-in-worker roots its walk at."""
    out = []
    n = len(tokens)
    for k in range(n - 1):
        t = tokens[k]
        if t.kind != IDENT or tokens[k + 1].value != "(":
            continue
        if t.value in ("parallel_for", "parallel_chunks"):
            pass
        elif t.value == "run" and k >= 2 \
                and tokens[k - 1].value in (".", "->") \
                and tokens[k - 2].kind == IDENT \
                and "pool" in tokens[k - 2].value.lower():
            pass
        else:
            continue
        close = _find_matching(tokens, k + 1, "(", ")")
        j = k + 2
        while j < close:
            if tokens[j].value != "[":
                j += 1
                continue
            cap_end = _find_matching(tokens, j, "[", "]")
            b = cap_end + 1
            if b < close and tokens[b].value == "(":
                b = _find_matching(tokens, b, "(", ")") + 1
            steps = 0
            while b < close and tokens[b].value != "{" and steps < 12:
                b += 1
                steps += 1
            if b >= close or tokens[b].value != "{":
                j = cap_end + 1
                continue
            body_close = _find_matching(tokens, b, "{", "}")
            body = tokens[b + 1:body_close]
            task = {"line": tokens[j].line, "col": tokens[j].col,
                    "via": t.value}
            sub = _analyze_body(body, [])
            task["calls"] = sub["calls"]
            task["blocking_tokens"] = sub["blocking_tokens"]
            out.append(task)
            j = body_close + 1
    return out


def _extract_provides(tokens):
    """Names a file declares (types, usings, macros, functions, globals):
    the 'signature' used for unused-include and header-signature call
    resolution.  Over-providing is safe (conservative); namespace names
    are excluded so `support::` uses don't mark every support header
    used."""
    provides = set()
    n = len(tokens)
    k = 0
    while k < n:
        t = tokens[k]
        if t.kind == PP:
            m = re.match(r"#\s*define\s+([A-Za-z_]\w*)", t.value)
            if m:
                provides.add(m.group(1))
            k += 1
            continue
        if t.kind == IDENT and t.value in ("class", "struct", "enum",
                                           "union"):
            j = k + 1
            last = None
            while j < n:
                v = tokens[j]
                if v.kind == PUNCT and v.value in ("{", ";", ":", ",", ")",
                                                   "<", ">", "="):
                    break
                if v.kind == PUNCT and v.value == "(":
                    j = _find_matching(tokens, j, "(", ")") + 1
                    continue
                if v.kind == IDENT and v.value not in _NOT_DECL_NAMES:
                    last = v.value
                j += 1
            if last:
                provides.add(last)
            k = j
            continue
        if t.kind == IDENT and t.value == "using" and k + 2 < n \
                and tokens[k + 1].kind == IDENT \
                and tokens[k + 2].value == "=":
            provides.add(tokens[k + 1].value)
            k += 3
            continue
        if t.kind == IDENT and t.value == "typedef":
            j = k + 1
            last = None
            while j < n and tokens[j].value != ";":
                if tokens[j].kind == IDENT:
                    last = tokens[j].value
                j += 1
            if last:
                provides.add(last)
            k = j
            continue
        if t.kind == IDENT and t.value not in _NOT_DECL_NAMES and k > 0:
            prev = tokens[k - 1]
            nxt = tokens[k + 1] if k + 1 < n else None
            prev_ok = (prev.kind == IDENT
                       and prev.value not in ("namespace", "return", "new",
                                              "delete", "throw", "case",
                                              "goto", "else", "do",
                                              "sizeof", "co_return",
                                              "co_await", "co_yield")) \
                or (prev.kind == PUNCT and prev.value in ("&", "&&", "*", ">",
                                                          ">>", "~"))
            if prev_ok and nxt is not None and \
                    (nxt.value in ("(", "=", ";", ",", "{", "[", ")")
                     or nxt.kind == IDENT):
                provides.add(t.value)
        k += 1
    return provides


def _extract_fp_idents(tokens):
    """Identifiers declared with double/float (directly or via
    vector<double>-style template args): the typing oracle for
    fp-determinism's MAC check."""
    out = set()
    n = len(tokens)
    for k, t in enumerate(tokens):
        if t.kind != IDENT or t.value not in ("double", "float"):
            continue
        j = k + 1
        while j < n and tokens[j].value in _FP_DECL_SKIP:
            j += 1
        if j < n and tokens[j].kind == IDENT \
                and tokens[j].value not in _NOT_DECL_NAMES:
            out.add(tokens[j].value)
    return out


def _extract_mutex_decls(tokens):
    """`support::Mutex name;`-shaped declarations: the lock universe for
    lock-order.  References/pointers/returns are skipped."""
    out = []
    n = len(tokens)
    for k, t in enumerate(tokens):
        if t.kind != IDENT or t.value != "Mutex":
            continue
        prev = tokens[k - 1] if k > 0 else None
        if prev is not None and prev.kind == IDENT and \
                prev.value in ("class", "struct", "friend", "enum"):
            continue
        nxt = tokens[k + 1] if k + 1 < n else None
        after = tokens[k + 2] if k + 2 < n else None
        if nxt is None or nxt.kind != IDENT or nxt.value in _NOT_DECL_NAMES:
            continue
        if after is not None and after.value == "(":
            continue  # function returning Mutex / ctor shape
        out.append([nxt.line, nxt.value])
    return out


def extract_facts(tokens):
    """All per-file facts the whole-program rules read."""
    includes = []
    idents = set()
    for t in tokens:
        if t.kind == PP:
            m = re.match(r'#\s*include\s+(["<])([^">]+)[">]', t.value)
            if m:
                includes.append([t.line, m.group(2), m.group(1) == '"'])
            idents.update(_PP_IDENT_RE.findall(t.value))
        elif t.kind == IDENT:
            idents.add(t.value)
    return {
        "includes": includes,
        "functions": list(_extract_functions(tokens)),
        "pool_tasks": _extract_pool_tasks(tokens),
        "idents": sorted(idents),
        "provides": sorted(_extract_provides(tokens)),
        "fp_idents": sorted(_extract_fp_idents(tokens)),
        "mutex_decls": _extract_mutex_decls(tokens),
    }


# ---------------------------------------------------------------------------
# Program: the whole-program view every rule reads

class Program:
    """One analysis input: the file set, lexed once, with its include
    graph and symbol/call graph, plus the allowlists and layer map the
    rules consult.

    `files` maps virtual (repo-relative, '/'-separated) paths to absolute
    paths; `commands` maps TU virtual paths to their compile command (None
    for headers)."""

    def __init__(self, files, commands, allow, layers):
        self.commands = dict(commands)
        self.allow = allow
        self.layers = layers
        self.tokens = {}
        self.facts = {}
        self._closure = {}
        self._provides_closure = {}
        self._fp_closure = {}
        self._resolve_memo = {}
        self._provset_memo = {}
        self._lock_memo = {}
        self._eff_acq = {}
        self.unresolved = []  # [rel, line, col, bare]
        self.weak_edges = 0

        for rel, path in files.items():
            with open(path, encoding="utf-8", errors="replace") as f:
                self.tokens[rel] = cpplex.lex(f.read())
            self.facts[rel] = extract_facts(self.tokens[rel])

        # Resolved include edges: rel -> [(line, as_written, target|None)]
        self.inc = {}
        for rel, facts in self.facts.items():
            edges = []
            base = os.path.dirname(rel)
            for line, inc, quoted in facts["includes"]:
                target = None
                for cand in ("src/" + inc,
                             os.path.normpath(os.path.join(base, inc))
                             .replace(os.sep, "/")):
                    if cand in self.facts:
                        target = cand
                        break
                edges.append((line, inc, target))
            self.inc[rel] = edges

        # Definition index: bare name -> [(rel, fn_index)]
        self.defs = {}
        for rel, facts in self.facts.items():
            for i, fn in enumerate(facts["functions"]):
                self.defs.setdefault(fn["name"], []).append((rel, i))
        # Lock decl index: name -> [rel]
        self.lock_decls = {}
        for rel, facts in self.facts.items():
            for _line, name in facts["mutex_decls"]:
                self.lock_decls.setdefault(name, []).append(rel)

    def fn(self, ref):
        return self.facts[ref[0]]["functions"][ref[1]]

    def _provset(self, rel):
        if rel not in self._provset_memo:
            self._provset_memo[rel] = set(self.facts[rel]["provides"])
        return self._provset_memo[rel]

    def fn_id(self, ref):
        return f"{ref[0]}::{self.fn(ref)['qname']}"

    def closure(self, rel):
        """`rel` plus every file transitively reachable via resolved
        includes (cycle-safe)."""
        if rel in self._closure:
            return self._closure[rel]
        seen = set()
        stack = [rel]
        while stack:
            f = stack.pop()
            if f in seen:
                continue
            seen.add(f)
            for _line, _inc, target in self.inc.get(f, ()):
                if target is not None and target not in seen:
                    stack.append(target)
        self._closure[rel] = seen
        return seen

    def provides_closure(self, rel):
        if rel not in self._provides_closure:
            out = set()
            for f in self.closure(rel):
                out.update(self.facts[f]["provides"])
            self._provides_closure[rel] = out
        return self._provides_closure[rel]

    def fp_closure(self, rel):
        if rel not in self._fp_closure:
            out = set()
            for f in self.closure(rel):
                out.update(self.facts[f]["fp_idents"])
            self._fp_closure[rel] = out
        return self._fp_closure[rel]

    @staticmethod
    def _qname_compatible(call_q, def_q):
        if "::" not in call_q or "::" not in def_q:
            return True
        a = call_q.split("::")
        b = def_q.split("::")
        short, long_ = (a, b) if len(a) <= len(b) else (b, a)
        return long_[-len(short):] == short

    def resolve_call(self, caller_rel, bare, qname, line=0, col=0,
                     record=True, member=False):
        """Definition candidates for a call site.  Order: edge-ignored std
        member names drop; exact/compatible qualified match; same-file;
        header-signature (a shared header in both closures provides the
        name); weak fallback to all candidates.  A project-looking name
        with no definition anywhere is recorded as unresolved -- except
        member calls (std vocabulary / member function pointers) and
        names the caller's own file declares (local lambdas, functors)."""
        if bare in _EDGE_IGNORED:
            return ()
        key = (caller_rel, bare, qname)
        hit = self._resolve_memo.get(key)
        if hit is not None:
            return hit
        cands = self.defs.get(bare, ())
        if not cands:
            if record and not member and bare not in _EXTERNAL_NAMES \
                    and "std" not in qname.split("::") \
                    and not bare.startswith("_") \
                    and not _ALLCAPS_RE.match(bare) \
                    and bare not in self._provset(caller_rel):
                self.unresolved.append([caller_rel, line, col, bare])
            self._resolve_memo[key] = ()
            return ()
        if "::" in qname:
            qc = [d for d in cands
                  if self._qname_compatible(qname, self.fn(d)["qname"])]
            if qc:
                cands = qc
        same = [d for d in cands if d[0] == caller_rel]
        if same:
            self._resolve_memo[key] = tuple(same)
            return tuple(same)
        vis = self.closure(caller_rel)
        sig = []
        for d in cands:
            if d[0] in vis:
                sig.append(d)  # inline definition in an included header
                continue
            dvis = self.closure(d[0])
            if any(h in dvis and bare in self.facts[h]["provides"]
                   for h in vis):
                sig.append(d)  # d implements a header the caller includes
        if sig:
            cands = sig
        else:
            self.weak_edges += 1
        self._resolve_memo[key] = tuple(cands)
        return tuple(cands)

    def resolve_lock(self, rel, name):
        """Lock identity `declfile::name`: same-file declaration first,
        then include closure, then a unique global declaration; '?' when
        ambiguous or undeclared."""
        key = (rel, name)
        if key in self._lock_memo:
            return self._lock_memo[key]
        decls = self.lock_decls.get(name, ())
        out = None
        if rel in decls:
            out = f"{rel}::{name}"
        else:
            vis = self.closure(rel)
            near = sorted(d for d in decls if d in vis)
            if near:
                out = f"{near[0]}::{name}"
            elif len(decls) == 1:
                out = f"{decls[0]}::{name}"
            else:
                out = f"?::{name}"
        self._lock_memo[key] = out
        return out

    def declared_locks(self):
        """Every support::Mutex declared under src/: {lock id: (rel,
        line)}."""
        return {f"{rel}::{name}": (rel, line)
                for rel in sorted(self.facts) if rel.startswith("src/")
                for line, name in self.facts[rel]["mutex_decls"]}

    def effective_acquires(self, ref, _stack=None):
        """Lock ids acquired by `ref` directly or via any resolved
        callee (fixpoint with cycle guard)."""
        if ref in self._eff_acq:
            return self._eff_acq[ref]
        if _stack is None:
            _stack = set()
        if ref in _stack:
            return set()
        _stack.add(ref)
        fn = self.fn(ref)
        rel = ref[0]
        out = set()
        for _l, _c, name in fn["acquires"]:
            out.add(self.resolve_lock(rel, name))
        for l, c, bare, qname, mem in fn["calls"]:
            for tgt in self.resolve_call(rel, bare, qname, l, c,
                                         record=False):
                out |= self.effective_acquires(tgt, _stack)
        _stack.discard(ref)
        self._eff_acq[ref] = out
        return out


def layer_of(rel):
    parts = rel.split("/")
    if len(parts) >= 3 and parts[0] == "src":
        return parts[1]
    return None


def _stem(rel):
    return os.path.splitext(os.path.basename(rel))[0]


# ---------------------------------------------------------------------------
# Rules: program -> [Finding]

def _per_file(rule, match):
    """A per-file match rule as a program rule: runs on every src/ file
    outside the rule's exempt_paths."""
    def run(program):
        exempt = tuple(program.allow.get(rule, {}).get("exempt_paths", {}))
        findings = []
        for rel in sorted(program.tokens):
            if rel.startswith("src/") and not rel.startswith(exempt):
                findings += match(rel, program.tokens[rel])
        return findings
    return run


def rule_layer_deps(program):
    allowed = program.layers.get("allowed", {})
    findings = []
    unknown_layers = set()
    for rel in sorted(program.facts):
        la = layer_of(rel)
        if la is None:
            continue
        if la not in allowed:
            if la not in unknown_layers:
                unknown_layers.add(la)
                findings.append(Finding(
                    "layer-deps", rel, 1, 1,
                    f"layer '{la}' is missing from scripts/lint/layers.json"
                    " -- every src/<layer>/ needs an allowed-edge entry"))
            continue
        ok = set(allowed[la]) | {la}
        for line, inc, target in program.inc[rel]:
            if target is None:
                continue
            lb = layer_of(target)
            if lb is None or lb in ok:
                continue
            findings.append(Finding(
                "layer-deps", rel, line, 1,
                f'#include "{inc}": layer \'{la}\' may not depend on '
                f"'{lb}' (allowed: {', '.join(sorted(ok))}) -- "
                "scripts/lint/layers.json is the normative ARCHITECTURE.md "
                "layer map; dependencies point strictly downward"))
    return findings


def _hotpath_stops(program):
    return program.allow.get("telemetry-hotpath", {}).get(
        "stop_functions", {})


def _hotpath_chains(program):
    """Every function reachable from the telemetry emission roots (the
    _HOTPATH_ROOTS defined under src/telemetry/), across TUs, without
    passing a stop function: {fn ref: call chain}."""
    stops = _hotpath_stops(program)
    chains = {}
    work = []
    for rel in sorted(program.facts):
        if not rel.startswith("src/telemetry/"):
            continue
        for i, fn in enumerate(program.facts[rel]["functions"]):
            if fn["name"] in _HOTPATH_ROOTS:
                chains[(rel, i)] = fn["name"]
                work.append((rel, i))
    while work:
        ref = work.pop()
        for l, c, bare, qname, mem in program.fn(ref)["calls"]:
            if bare in stops:
                continue
            for tgt in program.resolve_call(ref[0], bare, qname, l, c,
                                            member=bool(mem)):
                if tgt not in chains:
                    chains[tgt] = f"{chains[ref]} -> {bare}"
                    work.append(tgt)
    return chains


def rule_telemetry_hotpath(program):
    stops = _hotpath_stops(program)
    findings = []
    seen = set()
    for ref, chain in _hotpath_chains(program).items():
        fn = program.fn(ref)
        rel = ref[0]
        sites = [(l, c, bare) for l, c, bare, _q, _m in fn["calls"]
                 if bare in _HOTPATH_FORBIDDEN_CALLS and bare not in stops]
        sites += [(l, c, "MutexLock") for l, c, _lock in fn["acquires"]]
        sites += fn["news"]
        for l, c, what in sites:
            if (rel, l, c) in seen:
                continue
            seen.add((rel, l, c))
            findings.append(Finding(
                "telemetry-hotpath", rel, l, c,
                f"`{what}` reachable from the telemetry emission path "
                f"({chain}): the record hot path must not allocate, lock, "
                "block, throw, or read ad-hoc clocks -- route cold work "
                "through an allowlisted stop function "
                f"({ALLOWLISTS_REL})"))
    return findings


_FP_BAD_FLAGS = ("-ffast-math", "-funsafe-math-optimizations",
                 "-fassociative-math", "-Ofast")


def rule_fp_determinism(program):
    ex = tuple(program.allow.get("fp-determinism", {}).get("exempt_paths",
                                                           {}))
    findings = []
    for rel in sorted(program.commands):
        cmd = program.commands[rel]
        if cmd is None:
            continue
        if "-ffp-contract=off" not in cmd:
            findings.append(Finding(
                "fp-determinism", rel, 1, 1,
                "compile command lacks -ffp-contract=off: the bit-pin "
                "convention requires contraction off project-wide so "
                "scalar results are ISA-portable bit-for-bit"))
        for bad in _FP_BAD_FLAGS:
            if bad in cmd.split():
                findings.append(Finding(
                    "fp-determinism", rel, 1, 1,
                    f"compile command carries {bad}: value-unsafe math "
                    "breaks the fixed-seed bit pins"))
    for rel in sorted(program.facts):
        if not rel.startswith("src/") or rel.startswith(ex):
            continue
        fpids = None
        for fn in program.facts[rel]["functions"]:
            for mac in fn["macs"]:
                if fpids is None:
                    fpids = program.fp_closure(rel)
                if mac["fp_literal"] or not fpids.isdisjoint(mac["idents"]):
                    findings.append(Finding(
                        "fp-determinism", rel, mac["line"], mac["col"],
                        f"floating-point multiply-accumulate loop in "
                        f"`{fn['qname']}`: an FMA-eligible reduction "
                        "outside src/support/simd*/vecmath* -- route it "
                        "through a support/simd or vecmath kernel "
                        "(bit-pinned) or allowlist it with a written "
                        "justification"))
    return findings


def _lock_edges(program):
    """The global acquires-while-holding multigraph:
    {(holder, acquired): [(rel, line, col, note), ...]}."""
    edges = {}

    def add(a, b, rel, line, col, note):
        edges.setdefault((a, b), []).append((rel, line, col, note))

    for rel in sorted(program.facts):
        for i, fn in enumerate(program.facts[rel]["functions"]):
            for holder, l, c, name in fn["held"]:
                add(program.resolve_lock(rel, holder),
                    program.resolve_lock(rel, name),
                    rel, l, c, f"in {fn['qname']}")
            for holder, l, c, callee in fn["held_calls"]:
                for tgt in program.resolve_call(rel, callee,
                                                callee, l, c, record=False):
                    for acq in program.effective_acquires(tgt):
                        add(program.resolve_lock(rel, holder), acq,
                            rel, l, c,
                            f"in {fn['qname']} via {callee}()")
    return edges


def rule_lock_order(program):
    conf = program.allow.get("lock-order", {}).get("locks", {})
    findings = []
    for lock_id, (rel, line) in sorted(program.declared_locks().items()):
        if lock_id not in conf:
            findings.append(Finding(
                "lock-order", rel, line, 1,
                f"lock `{lock_id}` is not documented in the lock-order "
                f"hierarchy ({ALLOWLISTS_REL}): every support::Mutex "
                "needs a may_acquire entry (usually empty -- leaf) with a "
                "written justification"))
    edges = _lock_edges(program)
    for (a, b), sites in sorted(edges.items()):
        rel, line, col, note = sites[0]
        if a == b:
            findings.append(Finding(
                "lock-order", rel, line, col,
                f"`{a}` acquired while already held ({note}): "
                "self-deadlock on the non-recursive support::Mutex"))
            continue
        may = set(conf.get(a, {}).get("may_acquire", ()))
        if b not in may:
            findings.append(Finding(
                "lock-order", rel, line, col,
                f"`{b}` acquired while holding `{a}` ({note}): the "
                "documented hierarchy does not sanction this edge -- "
                "either restructure to scoped release-then-acquire "
                "(the parallel.cpp idiom) or extend may_acquire in "
                f"{ALLOWLISTS_REL} with a justification"))
    adj = {}
    for (a, b) in edges:
        if a != b:
            adj.setdefault(a, set()).add(b)
    state = {}
    for start in sorted(adj):
        stack = [(start, iter(sorted(adj.get(start, ()))))]
        if state.get(start):
            continue
        state[start] = 1
        path = [start]
        while stack:
            node, it = stack[-1]
            nxt = next(it, None)
            if nxt is None:
                state[node] = 2
                stack.pop()
                path.pop()
                continue
            if state.get(nxt) == 1:
                cyc = path[path.index(nxt):] + [nxt]
                rel, line, col, _n = edges[(node, nxt)][0]
                findings.append(Finding(
                    "lock-order", rel, line, col,
                    "lock-order cycle: " + " -> ".join(cyc) +
                    " -- two threads taking these in opposite order "
                    "deadlock; break the cycle with scoped "
                    "release-then-acquire"))
            elif state.get(nxt) is None:
                state[nxt] = 1
                path.append(nxt)
                stack.append((nxt, iter(sorted(adj.get(nxt, ())))))
    return findings


def _worker_walk(program):
    """The blocking-in-worker walk from every ThreadPool task body outside
    the scheduler: returns ({fn ref: call chain}, findings)."""
    sched = tuple(program.allow.get("blocking-in-worker", {}).get(
        "scheduler_paths", {}))
    findings = []
    seen = set()

    def flag(rel, l, c, what, chain):
        key = (rel, l, c)
        if key in seen:
            return
        seen.add(key)
        findings.append(Finding(
            "blocking-in-worker", rel, l, c,
            f"`{what}` reachable from a ThreadPool task body ({chain}): "
            "worker tasks must stay non-blocking (no sleeps, condvar "
            "waits, joins, process spawns, or file/socket IO) -- move "
            "the blocking work to the caller or behind the pool's own "
            "scheduler (allowlisted scheduler_paths)"))

    chains = {}
    work = []

    def enqueue(rel, l, c, bare, qname, mem, chain):
        targets = program.resolve_call(rel, bare, qname, l, c,
                                       member=bool(mem))
        if bare in _BLOCKING_CALLS:
            # A blocking name that resolves to a project definition
            # outside the scheduler is a project function that merely
            # shares the name (support::Rng::fork, not fork(2)): descend
            # into it instead.  Unresolvable names are libc/std blocking
            # primitives, and scheduler-defined ones (CondVar::wait,
            # ThreadPool::join) block by design -- both flag at the call
            # site.
            if not targets or all(t[0].startswith(sched) for t in targets):
                flag(rel, l, c, bare, chain)
                return
        for tgt in targets:
            if tgt not in chains and not tgt[0].startswith(sched):
                chains[tgt] = f"{chain} -> {program.fn(tgt)['qname']}"
                work.append(tgt)

    for rel in sorted(program.facts):
        if rel.startswith(sched):
            continue
        for task in program.facts[rel]["pool_tasks"]:
            chain = f"task@{rel}:{task['line']}"
            for l, c, name in task["blocking_tokens"]:
                flag(rel, l, c, name, chain)
            for l, c, bare, qname, mem in task["calls"]:
                enqueue(rel, l, c, bare, qname, mem, chain)
    while work:
        ref = work.pop()
        fn = program.fn(ref)
        rel = ref[0]
        chain = chains[ref]
        for l, c, name in fn["blocking_tokens"]:
            flag(rel, l, c, name, chain)
        for l, c, bare, qname, mem in fn["calls"]:
            enqueue(rel, l, c, bare, qname, mem, chain)
    return chains, findings


def rule_blocking_in_worker(program):
    return _worker_walk(program)[1]


def rule_unused_include(program):
    ex = tuple(program.allow.get("unused-include", {}).get("exempt_paths",
                                                           {}))
    findings = []
    for rel in sorted(program.facts):
        if not rel.startswith("src/") or rel.startswith(ex):
            continue
        uses = set(program.facts[rel]["idents"])
        for line, inc, target in program.inc[rel]:
            if target is None or _stem(target) == _stem(rel):
                continue
            # IWYU semantics: the *directly* included header must itself
            # provide a referenced name -- names satisfied only by its
            # nested includes mean the nested header is the one to
            # include.
            provs = set(program.facts[target]["provides"])
            if not provs:
                continue
            if provs.isdisjoint(uses):
                sample = ", ".join(sorted(provs)[:3])
                findings.append(Finding(
                    "unused-include", rel, line, 1,
                    f'#include "{inc}" provides no name this file '
                    f"references (IWYU-lite; it provides e.g. {sample}) "
                    "-- drop it or allowlist with a justification"))
    return findings


# The rule table: name -> rule(program) -> [Finding].
RULES = {
    **{name: _per_file(name, match) for name, match in MATCH_RULES.items()},
    "layer-deps": rule_layer_deps,
    "telemetry-hotpath": rule_telemetry_hotpath,
    "fp-determinism": rule_fp_determinism,
    "lock-order": rule_lock_order,
    "blocking-in-worker": rule_blocking_in_worker,
    "unused-include": rule_unused_include,
}


def check_stale_entries(program, rules):
    """Dead allowlist entries are worse than none: they read as a live
    justification for a suppression that no longer happens.  For each of
    `rules`, an entry is stale when
      exempt_paths / scheduler_paths  the prefix matches no analyzed file,
                                      or (per-file match rules) the rule
                                      finds nothing under it even with
                                      the exemption off;
      stop_functions                  the hot-path walk from the
                                      telemetry emission roots never
                                      reaches a call to it, so it stops
                                      nothing;
      locks (lock-order hierarchy)    no such support::Mutex is declared
                                      any more."""
    findings = []

    def stale(rule, kind, name, why, reason):
        findings.append(Finding(
            rule, ALLOWLISTS_REL, 1, 1,
            f"stale {kind} entry `{name}`: {reason} -- delete it "
            f"(justification was: {why!r})"))

    reached_calls = None
    declared = program.declared_locks()
    for rule in rules:
        conf = program.allow.get(rule, {})
        for kind in ("exempt_paths", "scheduler_paths"):
            for prefix, why in conf.get(kind, {}).items():
                matched = [rel for rel in sorted(program.tokens)
                           if rel.startswith(prefix)]
                if not matched:
                    stale(rule, kind, prefix, why,
                          "matches no analyzed file")
                elif rule in MATCH_RULES and not any(
                        MATCH_RULES[rule](rel, program.tokens[rel])
                        for rel in matched if rel.startswith("src/")):
                    stale(rule, kind, prefix, why,
                          f"the {rule} rule finds nothing there even with "
                          "the exemption off, so it suppresses nothing")
        stops = conf.get("stop_functions", {})
        if stops and reached_calls is None:
            reached_calls = {call[2] for ref in _hotpath_chains(program)
                             for call in program.fn(ref)["calls"]}
        for name, why in stops.items():
            if name not in reached_calls:
                stale(rule, "stop_functions", name, why,
                      "the walk from the telemetry emission roots never "
                      "reaches a call to it, so it stops nothing")
        for lock_id, entry in conf.get("locks", {}).items():
            if lock_id not in declared:
                stale(rule, "lock-order hierarchy", lock_id,
                      entry.get("why", ""),
                      "no such support::Mutex declaration exists any more")
    return findings


def analyze(program, rules):
    """Runs `rules` over the program, then the stale-entry check of their
    allowlists."""
    findings = []
    for rule in rules:
        findings += RULES[rule](program)
    return findings + check_stale_entries(program, rules)


# ---------------------------------------------------------------------------
# Tree / fixture discovery

def _load_json(path, default=None):
    if default is not None and not os.path.exists(path):
        return default
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def _rel_to_repo(path):
    return os.path.relpath(os.path.abspath(path), REPO_ROOT).replace(
        os.sep, "/")


def tree_program(build_dir):
    """The TU set from compile_commands.json plus every header under src/
    (headers never appear as compile-command entries)."""
    cc_path = os.path.join(build_dir, "compile_commands.json")
    if not os.path.exists(cc_path):
        sys.exit(f"analyzer.py: {cc_path} not found -- configure with "
                 "cmake (CMAKE_EXPORT_COMPILE_COMMANDS is ON by default "
                 "in this project) or pass --build-dir")
    files = {}
    commands = {}
    for entry in _load_json(cc_path):
        path = os.path.normpath(
            os.path.join(entry.get("directory", ""), entry["file"]))
        rel = _rel_to_repo(path)
        cmd = entry.get("command") or " ".join(entry.get("arguments", ()))
        if rel.startswith("src/"):
            files[rel] = path
            commands[rel] = cmd
        elif rel.startswith(("bench/", "apps/")):
            # Graph analysis stays src/-scoped, but the FP flag check
            # covers every TU whose output feeds the pinned perf series.
            commands[rel] = cmd
    for root, _dirs, names in os.walk(os.path.join(REPO_ROOT, "src")):
        for name in names:
            if name.endswith((".hpp", ".h", ".hh", ".hxx")):
                path = os.path.join(root, name)
                files[_rel_to_repo(path)] = path
    return Program(files, commands,
                   _load_json(os.path.join(LINT_DIR, "allowlists.json")),
                   _load_json(os.path.join(LINT_DIR, "layers.json")))


def fixture_program(root):
    """A Program over a fixture tree: every *.cpp under <root>/src is a
    TU with a synthesized compile command (-ffp-contract=off unless the
    name contains 'noflag').  A tree-local allowlists.json / layers.json
    overrides the defaults: no allowlists, and the project's layer map."""
    files = {}
    commands = {}
    src = os.path.join(root, "src")
    for walk_root, _dirs, names in os.walk(src):
        for name in names:
            path = os.path.join(walk_root, name)
            rel = os.path.relpath(path, root).replace(os.sep, "/")
            files[rel] = path
            if name.endswith(".cpp"):
                flag = "" if "noflag" in name else " -ffp-contract=off"
                commands[rel] = (f"c++ -I{src} -std=c++20 -O2{flag} "
                                 f"-c {path}")
    layers = os.path.join(root, "layers.json")
    if not os.path.exists(layers):
        layers = os.path.join(LINT_DIR, "layers.json")
    return Program(files, commands,
                   _load_json(os.path.join(root, "allowlists.json"), {}),
                   _load_json(layers))


# ---------------------------------------------------------------------------
# Self-test, graph dump, explain, summary

def self_test(fixtures_dir):
    """Each directory under `fixtures_dir` names a rule (dashes as
    underscores) and holds bad*/ and clean*/ fixture trees.  A bad tree
    must draw a finding from its own rule; a clean tree must draw none
    from any rule.  A directory naming no rule in RULES, a tree that is
    neither bad nor clean, and a rule without both a bad and a clean tree
    each fail the suite, so no rule loses its fixtures unnoticed."""
    failures = 0
    covered = set()
    for entry in sorted(os.listdir(fixtures_dir)):
        rule_dir = os.path.join(fixtures_dir, entry)
        if not os.path.isdir(rule_dir):
            continue
        rule = entry.replace("_", "-")
        if rule not in RULES:
            print(f"self-test: {entry}/: names no rule in RULES")
            failures += 1
            continue
        for tree in sorted(os.listdir(rule_dir)):
            root = os.path.join(rule_dir, tree)
            if not os.path.isdir(root):
                continue
            kind = tree.split("_", 1)[0]
            label = f"{rule}/{tree}"
            if kind not in ("bad", "clean"):
                print(f"self-test: {label}: neither a bad* nor a clean* "
                      "tree")
                failures += 1
                continue
            covered.add((rule, kind))
            program = fixture_program(root)
            if kind == "bad":
                hits = [f for f in analyze(program, (rule,))
                        if f.rule == rule]
                if hits:
                    print(f"self-test: {label}: flagged "
                          f"({len(hits)} finding(s)) -- ok")
                else:
                    print(f"self-test: {label}: expected a [{rule}] "
                          "finding, got none")
                    failures += 1
            else:
                findings = analyze(program, RULES)
                if findings:
                    print(f"self-test: {label}: expected clean, got:")
                    for f in findings:
                        print(f"  {f}")
                    failures += 1
                else:
                    print(f"self-test: {label}: clean -- ok")
    for rule in RULES:
        for kind in ("bad", "clean"):
            if (rule, kind) not in covered:
                print(f"self-test: {rule}: no {kind} fixture tree")
                failures += 1
    if failures:
        print(f"self-test: {failures} fixture expectation(s) failed")
        return 1
    print("self-test: all fixture expectations hold")
    return 0


def graph_dump(program, out):
    call_edges = set()
    for rel in sorted(program.facts):
        for fn in program.facts[rel]["functions"]:
            for l, c, bare, qname, mem in fn["calls"]:
                for tgt in program.resolve_call(rel, bare, qname, l, c,
                                                member=bool(mem)):
                    call_edges.add((f"{rel}::{fn['qname']}",
                                    program.fn_id(tgt)))
    lock_e = _lock_edges(program)
    data = {
        "files": len(program.facts),
        "include_edges": [
            [rel, target, line]
            for rel in sorted(program.inc)
            for line, _inc, target in program.inc[rel] if target],
        "call_edges": sorted(call_edges),
        "unresolved_calls": program.unresolved,
        "weak_edges": program.weak_edges,
        "locks": {lock_id: line for lock_id, (_rel, line)
                  in program.declared_locks().items()},
        "lock_edges": [[a, b, sites[0][0], sites[0][1]]
                       for (a, b), sites in sorted(lock_e.items())],
        "pool_task_roots": [
            [rel, t["line"], t["via"]]
            for rel in sorted(program.facts)
            for t in program.facts[rel]["pool_tasks"]],
    }
    text = json.dumps(data, indent=1)
    if out == "-":
        print(text)
    else:
        with open(out, "w", encoding="utf-8") as f:
            f.write(text + "\n")
        print(f"analyzer.py: graph dumped to {out}")


def explain(program, query):
    if ":" not in query:
        print(f"explain: expected <rule>:<symbol>, got {query!r}")
        return 2
    rule, sym = query.split(":", 1)
    if rule == "layer-deps":
        la = layer_of(sym)
        allowed = program.layers.get("allowed", {})
        print(f"{sym}: layer '{la}', allowed deps: "
              f"{sorted(set(allowed.get(la, ())) | {la})}")
        for line, inc, target in program.inc.get(sym, ()):
            lb = layer_of(target) if target else None
            print(f"  line {line}: include {inc} -> "
                  f"{target or '<external>'} (layer {lb})")
        return 0
    if rule in ("telemetry-hotpath", "blocking-in-worker"):
        chains = (_hotpath_chains(program) if rule == "telemetry-hotpath"
                  else _worker_walk(program)[0])
        hits = [(ref, chain) for ref, chain in sorted(chains.items())
                if program.fn(ref)["name"] == sym
                or program.fn(ref)["qname"] == sym]
        if not hits:
            print(f"{sym}: not reachable under {rule}")
        for ref, chain in hits:
            print(f"{program.fn_id(ref)} ({ref[0]}:"
                  f"{program.fn(ref)['line']}): reachable via {chain}")
        return 0
    if rule == "lock-order":
        edges = _lock_edges(program)
        conf = program.allow.get("lock-order", {}).get("locks", {})
        matches = [lid for lid in program.declared_locks()
                   if lid == sym or lid.endswith("::" + sym)]
        if not matches:
            print(f"{sym}: no support::Mutex declaration matches")
            return 0
        for lid in sorted(matches):
            doc = conf.get(lid)
            print(f"{lid}: documented={'yes' if doc else 'NO'}"
                  + (f", may_acquire={doc.get('may_acquire')}" if doc
                     else ""))
            for (a, b), sites in sorted(edges.items()):
                if lid in (a, b):
                    rel, line, col, note = sites[0]
                    print(f"  edge {a} -> {b} at {rel}:{line}:{col} "
                          f"({note})")
        return 0
    if rule == "fp-determinism":
        cmd = program.commands.get(sym)
        if cmd is not None:
            print(f"{sym}: -ffp-contract=off "
                  f"{'present' if '-ffp-contract=off' in cmd else 'MISSING'}")
        for fn in program.facts.get(sym, {}).get("functions", ()):
            for mac in fn["macs"]:
                fp = (mac["fp_literal"]
                      or not program.fp_closure(sym).isdisjoint(
                          mac["idents"]))
                print(f"  {sym}:{mac['line']}: MAC loop in {fn['qname']} "
                      f"(idents {mac['idents']}, fp={'yes' if fp else 'no'})")
        return 0
    if rule == "unused-include":
        uses = set(program.facts.get(sym, {}).get("idents", ()))
        for line, inc, target in program.inc.get(sym, ()):
            if target is None:
                print(f"  line {line}: {inc} -> <external>")
                continue
            provs = program.provides_closure(target)
            used = sorted(provs & uses)[:5]
            print(f"  line {line}: {inc} -> {target}: "
                  + (f"used via {used}" if used else "UNUSED"))
        return 0
    print(f"explain: unknown rule {rule!r}")
    return 2


def write_summary_md(path, per_rule, program, elapsed, budget=5.0):
    lines = ["### fairbfl-analyzer", "",
             "| rule | findings | status |", "|---|---:|---|"]
    for rule in RULES:
        n = per_rule.get(rule, 0)
        lines.append(f"| {rule} | {n} | "
                     f"{'clean' if n == 0 else '**FAIL**'} |")
    lines.append("")
    lines.append(
        f"{len(program.facts)} files, "
        f"{len(set((u[0], u[3]) for u in program.unresolved))} unresolved "
        f"call name(s), {program.weak_edges} weak edge(s); runtime "
        f"**{elapsed:.2f}s** (budget {budget:.0f}s"
        f"{' -- OVER' if elapsed > budget else ''})")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Driver

def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--build-dir",
                        default=os.path.join(REPO_ROOT, "build"))
    parser.add_argument("--rule", action="append", choices=tuple(RULES))
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--fixtures-dir",
                        default=os.path.join(REPO_ROOT, "tests",
                                             "analyzer_fixtures"))
    parser.add_argument("--graph-dump", metavar="FILE",
                        help="write the graph as JSON ('-' for stdout)")
    parser.add_argument("--explain", metavar="RULE:SYMBOL")
    parser.add_argument("--summary-md", metavar="FILE",
                        help="write a per-rule markdown summary table")
    args = parser.parse_args()

    if args.self_test:
        return self_test(args.fixtures_dir)

    t0 = time.monotonic()
    program = tree_program(args.build_dir)

    if args.explain:
        return explain(program, args.explain)

    rules = tuple(args.rule) if args.rule else tuple(RULES)
    findings = analyze(program, rules)
    if args.graph_dump:
        graph_dump(program, args.graph_dump)

    for f in findings:
        print(f)
    elapsed = time.monotonic() - t0
    per_rule = {}
    for f in findings:
        per_rule[f.rule] = per_rule.get(f.rule, 0) + 1
    if args.summary_md:
        write_summary_md(args.summary_md, per_rule, program, elapsed)
    unresolved_names = sorted(set(u[3] for u in program.unresolved))
    note = ""
    if unresolved_names:
        shown = ", ".join(unresolved_names[:15])
        if len(unresolved_names) > 15:
            shown += ", ..."
        note = (f"; {len(unresolved_names)} unresolved call name(s) "
                f"[{shown}] (see --graph-dump)")
    print(f"analyzer.py: {len(program.facts)} files, {len(rules)} "
          f"rule(s), {len(findings)} finding(s), {elapsed:.2f}s{note}",
          file=sys.stderr if findings else sys.stdout)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
