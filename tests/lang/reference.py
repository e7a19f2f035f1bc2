"""Retained reference implementations of the optimized kernels.

The hot kernels — :mod:`repro.lang.charset`, the Earley recognizer in
:mod:`repro.lang.earley`, the FST-image construction in
:mod:`repro.lang.image`, the CFG ∩ DFA product in
:mod:`repro.lang.intersect` — were rewritten for speed (hash-consed
bitset charsets, integer-indexed charts, lazy triple materialization).
This module keeps the original, obviously-correct formulations
*verbatim in spirit*: interval-walk set algebra, the textbook item-set
recognizer, and the eager full-product image and intersection.  They
are deliberately slow and deliberately simple.

``tests/lang/test_kernel_equivalence.py`` drives randomized inputs
through both implementations and asserts extensional equality — the
optimized kernels must agree with these on every query.  Nothing in the
analysis imports this module; it exists only as the executable
specification the property tests check against.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.lang.charset import MAX_CODEPOINT

# ---------------------------------------------------------------------------
# charset algebra on raw interval tuples
# ---------------------------------------------------------------------------

Intervals = tuple[tuple[int, int], ...]


def ref_normalize(intervals: Iterable[tuple[int, int]]) -> Intervals:
    """Sort, clamp, drop empties, and merge touching/overlapping intervals."""
    clamped = []
    for lo, hi in intervals:
        lo = max(lo, 0)
        hi = min(hi, MAX_CODEPOINT)
        if lo <= hi:
            clamped.append((lo, hi))
    clamped.sort()
    merged: list[tuple[int, int]] = []
    for lo, hi in clamped:
        if merged and lo <= merged[-1][1] + 1:
            prev_lo, prev_hi = merged[-1]
            merged[-1] = (prev_lo, max(prev_hi, hi))
        else:
            merged.append((lo, hi))
    return tuple(merged)


def ref_contains(intervals: Intervals, cp: int) -> bool:
    return any(lo <= cp <= hi for lo, hi in intervals)


def ref_union(a: Intervals, b: Intervals) -> Intervals:
    return ref_normalize(a + b)


def ref_interval_intersect(a: Intervals, b: Intervals) -> Intervals:
    result = []
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if lo <= hi:
            result.append((lo, hi))
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return ref_normalize(result)


def ref_complement(a: Intervals) -> Intervals:
    result = []
    prev_end = -1
    for lo, hi in a:
        if lo > prev_end + 1:
            result.append((prev_end + 1, lo - 1))
        prev_end = hi
    if prev_end < MAX_CODEPOINT:
        result.append((prev_end + 1, MAX_CODEPOINT))
    return tuple(result)


def ref_difference(a: Intervals, b: Intervals) -> Intervals:
    return ref_interval_intersect(a, ref_complement(b))


def ref_overlaps(a: Intervals, b: Intervals) -> bool:
    i = j = 0
    while i < len(a) and j < len(b):
        if a[i][0] > b[j][1]:
            j += 1
        elif b[j][0] > a[i][1]:
            i += 1
        else:
            return True
    return False


def ref_is_subset(a: Intervals, b: Intervals) -> bool:
    return not ref_difference(a, b)


def ref_partition(sets: Sequence[Intervals]) -> list[Intervals]:
    """Alphabet refinement into disjoint classes covering the union."""
    boundaries: set[int] = set()
    for s in sets:
        for lo, hi in s:
            boundaries.add(lo)
            boundaries.add(hi + 1)
    cuts = sorted(boundaries)
    classes = []
    for lo, next_lo in zip(cuts, cuts[1:]):
        piece = ((lo, next_lo - 1),)
        if any(ref_overlaps(piece, s) for s in sets):
            classes.append(piece)
    return classes


# ---------------------------------------------------------------------------
# the original Earley recognizer over string symbols
# ---------------------------------------------------------------------------


class _RefItem(tuple):
    """(lhs, rhs, dot, origin) — plain tuple for hashing."""

    __slots__ = ()

    @property
    def lhs(self):
        return self[0]

    @property
    def rhs(self):
        return self[1]

    @property
    def dot(self):
        return self[2]

    @property
    def origin(self):
        return self[3]

    def next_symbol(self):
        return self[1][self[2]] if self[2] < len(self[1]) else None

    def advanced(self):
        return _RefItem((self[0], self[1], self[2] + 1, self[3]))


def ref_nullable(productions: Mapping[str, list[tuple[str, ...]]]) -> set[str]:
    nullable: set[str] = set()
    changed = True
    while changed:
        changed = False
        for lhs, rules in productions.items():
            if lhs in nullable:
                continue
            for rhs in rules:
                if all(s in nullable for s in rhs):
                    nullable.add(lhs)
                    changed = True
                    break
    return nullable


def ref_parse_sentential_form(
    grammar,
    start: str,
    form: Sequence[str],
    match_classes: Mapping[str, frozenset[str]] | None = None,
) -> bool:
    """The original (pre-optimization) Earley recognition of ``form``.

    ``grammar`` is a :class:`repro.lang.earley.TokenGrammar` (only its
    ``productions`` mapping is consulted).  Semantics are identical to
    :func:`repro.lang.earley.parse_sentential_form`: input nonterminals
    scan like tokens matching themselves, ``match_classes`` lets an
    input symbol match a set of grammar symbols, and the
    Aycock–Horspool nullable fix keeps empty derivations exact.
    """
    productions = grammar.productions
    augmented = "__start__"
    while augmented in productions:
        augmented += "_"
    nullable = ref_nullable(productions)
    chart: list[set[_RefItem]] = [set() for _ in range(len(form) + 1)]
    chart[0].add(_RefItem((augmented, (start,), 0, 0)))

    def matches(expected: str, actual: str) -> bool:
        if expected == actual:
            return True
        if match_classes and actual in match_classes:
            return expected in match_classes[actual]
        return False

    for position in range(len(form) + 1):
        worklist = list(chart[position])
        seen = set(worklist)
        while worklist:
            item = worklist.pop()
            symbol = item.next_symbol()
            if symbol is None:
                for parent in list(chart[item.origin]):
                    if parent.next_symbol() == item.lhs:
                        advanced = parent.advanced()
                        if advanced not in seen and advanced.origin <= position:
                            if advanced not in chart[position]:
                                chart[position].add(advanced)
                                seen.add(advanced)
                                worklist.append(advanced)
                continue
            if symbol in productions:
                for rhs in productions[symbol]:
                    predicted = _RefItem((symbol, rhs, 0, position))
                    if predicted not in chart[position]:
                        chart[position].add(predicted)
                        seen.add(predicted)
                        worklist.append(predicted)
                if symbol in nullable:
                    advanced = item.advanced()
                    if advanced not in chart[position]:
                        chart[position].add(advanced)
                        seen.add(advanced)
                        worklist.append(advanced)
            if position < len(form) and matches(symbol, form[position]):
                advanced = item.advanced()
                if advanced not in chart[position + 1]:
                    chart[position + 1].add(advanced)
    return any(
        item.lhs == augmented and item.dot == 1 for item in chart[len(form)]
    )


# ---------------------------------------------------------------------------
# the original eager FST-image construction
# ---------------------------------------------------------------------------


def ref_fst_image(grammar, root, fst):
    """The original (pre-optimization) image construction: eager pair
    fixpoint over every nonterminal, full triple materialization, then a
    trim.  Returns ``(result, start)``.

    Used by the equivalence tests to validate the lazy implementation:
    the trimmed results must have equal canonical fingerprints (the
    strongest equality the analysis itself relies on — same language,
    same labels, same deterministic downstream behaviour).
    """
    from collections import defaultdict

    from repro.lang.fst import map_marker_charset, render_output
    from repro.lang.grammar import Grammar, Lit, Rhs, Symbol, is_terminal
    from repro.lang.grammar import Nonterminal as NT

    normalized = grammar.normalized(root)
    states = list(range(fst.num_states))

    def lit_runs(text: str, start: int) -> dict[int, set[str]]:
        frontier: dict[int, set[str]] = {start: {""}}
        for char in text:
            next_frontier: dict[int, set[str]] = defaultdict(set)
            for state, outputs in frontier.items():
                for transition in fst.transitions.get(state, ()):
                    if char not in transition.label:
                        continue
                    emitted = render_output(transition.output, char)
                    for out in outputs:
                        next_frontier[transition.dst].add(out + emitted)
            frontier = dict(next_frontier)
            if not frontier:
                break
        return frontier

    def charset_steps(charset, start: int):
        result: dict[int, list[tuple[Symbol, ...]]] = defaultdict(list)
        for transition in fst.transitions.get(start, ()):
            overlap = charset.intersect(transition.label)
            if not overlap:
                continue
            symbols: list[Symbol] = []
            for item in transition.output:
                mapped = map_marker_charset(item, overlap)
                if isinstance(mapped, str):
                    if mapped:
                        symbols.append(Lit(mapped))
                else:
                    symbols.append(mapped)
            result[transition.dst].append(tuple(symbols))
        return result

    pairs: dict[NT, set[tuple[int, int]]] = defaultdict(set)
    term_cache: dict[int, set[tuple[int, int]]] = {}

    def term_pairs(symbol) -> set[tuple[int, int]]:
        found = set()
        if isinstance(symbol, Lit):
            for p in states:
                for q in lit_runs(symbol.text, p):
                    found.add((p, q))
        else:
            for p in states:
                for q in charset_steps(symbol, p):
                    found.add((p, q))
        return found

    def sym_pairs(symbol) -> set[tuple[int, int]]:
        if isinstance(symbol, NT):
            return pairs[symbol]
        key = id(symbol)
        if key not in term_cache:
            term_cache[key] = term_pairs(symbol)
        return term_cache[key]

    rules = normalized.productions

    def eval_rhs(rhs: Rhs) -> set[tuple[int, int]]:
        if not rhs:
            return {(p, p) for p in states}
        if len(rhs) == 1:
            return set(sym_pairs(rhs[0]))
        left, right = sym_pairs(rhs[0]), sym_pairs(rhs[1])
        by_start: dict[int, list[int]] = defaultdict(list)
        for j, k in right:
            by_start[j].append(k)
        return {(i, k) for i, j in left for k in by_start.get(j, ())}

    changed = True
    while changed:
        changed = False
        for lhs, rhss in rules.items():
            for rhs in rhss:
                new_pairs = eval_rhs(rhs) - pairs[lhs]
                if new_pairs:
                    pairs[lhs].update(new_pairs)
                    changed = True

    result = Grammar()
    triple: dict[tuple[NT, int, int], NT] = {}
    term_triple: dict[tuple[int, int, int], NT] = {}

    def get_triple(nt, p: int, q: int):
        key = (nt, p, q)
        if key not in triple:
            fresh = result.fresh(f"{nt.name}/{p},{q}")
            triple[key] = fresh
            for label in normalized.labels.get(nt, ()):
                result.add_label(fresh, label)
        return triple[key]

    def term_symbol(symbol, p: int, q: int):
        key = (id(symbol), p, q)
        if key in term_triple:
            return term_triple[key]
        if isinstance(symbol, Lit):
            outputs = lit_runs(symbol.text, p).get(q)
            if not outputs:
                return None
            if len(outputs) == 1:
                return Lit(next(iter(outputs)))
            wrapper = result.fresh(f"lit/{p},{q}")
            for out in sorted(outputs):
                result.add(wrapper, (Lit(out),) if out else ())
            term_triple[key] = wrapper
            return wrapper
        sequences = charset_steps(symbol, p).get(q)
        if not sequences:
            return None
        if len(sequences) == 1 and len(sequences[0]) == 1:
            return sequences[0][0]
        wrapper = result.fresh(f"cls/{p},{q}")
        for seq in sequences:
            result.add(wrapper, seq)
        term_triple[key] = wrapper
        return wrapper

    def rhs_symbol(symbol, p: int, q: int):
        if is_terminal(symbol):
            return term_symbol(symbol, p, q)
        if (p, q) in pairs[symbol]:
            return get_triple(symbol, p, q)
        return None

    for lhs, rhss in rules.items():
        for p, q in pairs[lhs]:
            lhs_triple = get_triple(lhs, p, q)
            for rhs in rhss:
                if not rhs:
                    if p == q:
                        result.add(lhs_triple, ())
                    continue
                if len(rhs) == 1:
                    restricted = rhs_symbol(rhs[0], p, q)
                    if restricted is not None:
                        result.add(lhs_triple, (restricted,))
                    continue
                first, second = rhs
                for p2, mid in sym_pairs(first):
                    if p2 != p:
                        continue
                    left = rhs_symbol(first, p, mid)
                    right = rhs_symbol(second, mid, q)
                    if left is not None and right is not None:
                        result.add(lhs_triple, (left, right))

    start = result.fresh(f"{root.name}»")
    result.start = start
    for label in normalized.labels.get(root, ()):
        result.add_label(start, label)
    for q in states:
        if not fst.is_accepting(q):
            continue
        if (fst.start, q) not in pairs[root]:
            continue
        flush = fst.final_output.get(q, "")
        body: Rhs = (get_triple(root, fst.start, q),)
        if flush:
            body = body + (Lit(flush),)
        result.add(start, body)
    return result.trim(start), start


# ---------------------------------------------------------------------------
# the original eager CFG ∩ DFA construction (paper Figure 7)
# ---------------------------------------------------------------------------


def ref_intersect(grammar, root, dfa):
    """The original (pre-optimization) intersection: a triple for every
    (nonterminal, realizable pair) of the normalized scope, then a full
    trim.  Returns ``(result, start)``.

    The pair fixpoint is the analysis's own; what this checks is the
    materialization.  The optimized build must give every kept triple
    the same name, labels and rules in the same order.
    """
    from repro.lang.grammar import Grammar, Lit
    from repro.lang.grammar import Nonterminal as NT
    from repro.lang.intersect import _PairTable

    table = _PairTable(grammar, dfa)
    normalized = table.grammar
    result = Grammar()
    triple = {}

    def get_triple(nt, i, j):
        key = (nt, i, j)
        if key not in triple:
            fresh = result.fresh(f"{nt.name}@{i},{j}")
            triple[key] = fresh
            for label in normalized.labels.get(nt, ()):
                result.add_label(fresh, label)
        return triple[key]

    def rhs_symbol(symbol, i, j):
        if isinstance(symbol, NT):
            return get_triple(symbol, i, j) if (i, j) in table.pairs[symbol] else None
        if isinstance(symbol, Lit):
            return symbol if table.lit_target(symbol.text, i) == j else None
        refined = table.charset_refined(symbol, i, j)
        return refined if refined else None

    for lhs, rhss in normalized.productions.items():
        for i, j in table.pairs[lhs]:
            lhs_triple = get_triple(lhs, i, j)
            for rhs in rhss:
                if not rhs:
                    if i == j:
                        result.add(lhs_triple, ())
                elif len(rhs) == 1:
                    restricted = rhs_symbol(rhs[0], i, j)
                    if restricted is not None:
                        result.add(lhs_triple, (restricted,))
                else:
                    first, second = rhs
                    for i2, mid in table.symbol_pairs(first):
                        if i2 != i:
                            continue
                        left = rhs_symbol(first, i, mid)
                        right = rhs_symbol(second, mid, j)
                        if left is not None and right is not None:
                            result.add(lhs_triple, (left, right))

    start = result.fresh(f"{root.name}∩")
    result.start = start
    for label in normalized.labels.get(root, ()):
        result.add_label(start, label)
    for qf in dfa.accepts:
        if (dfa.start, qf) in table.pairs[root]:
            result.add(start, (get_triple(root, dfa.start, qf),))
    return result.trim(start), start


def ref_generates(grammar, root, text: str) -> bool:
    """Reference membership: the grammar's own CYK-style checker."""
    return grammar.generates(root, text)
