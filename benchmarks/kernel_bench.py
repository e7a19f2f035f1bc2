"""Micro-benchmarks for the core formal-language kernels.

Times each hot kernel in isolation — charset algebra, the Earley
recognizer, FST image construction, CFG ∩ FSA intersection, and
sentential-form sampling.  Each kernel runs a fixed, deterministic
workload, so the ops/second figures are comparable across commits.

Writes ``BENCH_kernels.json`` at the repository root.

Usage::

    python benchmarks/kernel_bench.py [--reps N]
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.lang.charset import CharSet  # noqa: E402
from repro.lang.earley import TokenGrammar, parse_sentential_form  # noqa: E402
from repro.lang.fst import FST  # noqa: E402
from repro.lang.grammar import Grammar, Lit  # noqa: E402
from repro.lang.image import IMAGE_CACHE, fst_image  # noqa: E402
from repro.lang.intersect import intersect, intersection_is_empty  # noqa: E402
from repro.lang.regex import full_match_language, parse_regex, search_language  # noqa: E402


def _rate(count: int, seconds: float) -> float:
    return round(count / seconds, 1) if seconds > 0 else float("inf")


# -- fixed workloads ----------------------------------------------------------


def _charsets() -> list[CharSet]:
    return [
        CharSet.of("abc"),
        CharSet.range("a", "z"),
        CharSet.range("0", "9"),
        CharSet.of("'\"\\"),
        CharSet.range("a", "z").union(CharSet.range("A", "Z")),
        CharSet.of(" \t\r\n"),
        CharSet([(0x100, 0x2FF), (0x400, 0x4FF)]),
        CharSet.any_char(),
    ]


def bench_charset(reps: int) -> dict:
    sets = _charsets()
    pairs = [(a, b) for a in sets for b in sets]
    count = 0
    started = time.perf_counter()
    for _ in range(reps):
        for a, b in pairs:
            a.union(b)
            a.intersect(b)
            a.overlaps(b)
            a.is_subset_of(b)
            count += 4
    elapsed = time.perf_counter() - started
    return {"ops": count, "ops_per_s": _rate(count, elapsed)}


def _token_grammar() -> TokenGrammar:
    g = TokenGrammar("S")
    g.add("S", ("S", "+", "T"))
    g.add("S", ("T",))
    g.add("T", ("T", "*", "F"))
    g.add("T", ("F",))
    g.add("F", ("(", "S", ")"))
    g.add("F", ("n",))
    g.add("F", ())
    return g


def bench_earley(reps: int) -> dict:
    g = _token_grammar()
    forms = [
        ("n", "+", "n"),
        ("n", "*", "n", "+", "n"),
        ("(", "n", "+", "n", ")", "*", "n"),
        ("T", "+", "F"),
        ("n", "n"),
        ("(", ")", "+"),
    ]
    count = 0
    started = time.perf_counter()
    for _ in range(reps):
        for form in forms:
            parse_sentential_form(g, "S", form)
            count += 1
    elapsed = time.perf_counter() - started
    return {"parses": count, "parses_per_s": _rate(count, elapsed)}


def _query_grammar() -> Grammar:
    """A small SQL-query-shaped grammar with a tainted hole."""
    g = Grammar()
    query, clause, value = g.fresh("query"), g.fresh("clause"), g.fresh("value")
    g.start = query
    g.add(query, (Lit("SELECT * FROM t WHERE "), clause))
    g.add(clause, (Lit("id = '"), value, Lit("'")))
    g.add(clause, (clause, Lit(" AND "), clause))
    g.add(value, (CharSet.range("a", "z"), value))
    g.add(value, (CharSet.range("0", "9"),))
    g.add(value, (Lit("x"),))
    g.add_label(value, "GET:id")
    return g


FSTS = [
    FST.escape_chars(CharSet.of("'\"\\")),
    FST.delete_chars(CharSet.of("'")),
    FST.replace_chars(CharSet.of("'"), "''"),
    FST.lowercase(),
]


def bench_fst_image(reps: int) -> dict:
    count = 0
    started = time.perf_counter()
    for _ in range(reps):
        # a fresh grammar per rep defeats the per-instance memos; the
        # content-addressed IMAGE_CACHE is cleared so every rep measures
        # a genuinely cold construction
        g = _query_grammar()
        IMAGE_CACHE.clear()
        for fst in FSTS:
            fst_image(g, g.start, fst)
            count += 1
    elapsed = time.perf_counter() - started
    return {"images": count, "images_per_s": _rate(count, elapsed)}


DFA_PATTERNS = ["'", "[0-9]", "--", "[^a-z0-9' =*SELECTFROMWHR]"]


def _dfas():
    contains = [
        search_language(parse_regex(p)).determinize() for p in DFA_PATTERNS
    ]
    full = [full_match_language(parse_regex("[a-z0-9]*")).determinize()]
    return contains + full


def bench_intersection(reps: int) -> dict:
    dfas = _dfas()
    queries = 0
    materializations = 0
    started = time.perf_counter()
    for _ in range(reps):
        g = _query_grammar()
        for dfa in dfas:
            if not intersection_is_empty(g, g.start, dfa):
                intersect(g, g.start, dfa)
                materializations += 1
            queries += 1
    elapsed = time.perf_counter() - started
    return {
        "emptiness_queries": queries,
        "materializations": materializations,
        "queries_per_s": _rate(queries, elapsed),
    }


def bench_sampling(reps: int) -> dict:
    count = 0
    started = time.perf_counter()
    for _ in range(reps):
        g = _query_grammar()
        g.sample_strings(g.start, limit=3, max_len=200)
        count += 1
    elapsed = time.perf_counter() - started
    return {"calls": count, "calls_per_s": _rate(count, elapsed)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=200)
    options = parser.parse_args(argv)
    sys.setrecursionlimit(100_000)

    reps = options.reps
    result = {
        "reps": reps,
        "charset": bench_charset(reps),
        "earley": bench_earley(max(1, reps // 4)),
        "fst_image": bench_fst_image(max(1, reps // 10)),
        "intersection": bench_intersection(max(1, reps // 10)),
        "sampling": bench_sampling(reps),
    }
    out = ROOT / "BENCH_kernels.json"
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
