"""CFG ∩ FSA intersection with taint propagation (paper Figure 7).

Given a grammar ``G``, a root nonterminal, and a DFA ``F``, construct a
grammar for ``L(G, root) ∩ L(F)`` whose nonterminals are triples
``X_{ij}`` ("X, entered at automaton state *i*, leaving at *j*").  The
paper's ``TAINTIF`` step — every ``X_{ij}`` inherits the taint labels of
``X`` — is what makes Theorem 3.1 hold: tainted-substring boundaries
survive the intersection.

The construction runs in two stages:

1. a *pair fixpoint* computing, for every nonterminal ``X``, the set of
   state pairs ``(i, j)`` such that some string of ``X`` drives the DFA
   from ``i`` to ``j`` (this alone answers emptiness queries, which is
   all the policy checks need), and
2. on demand, materialization of the triple grammar.

Working over a *deterministic* automaton keeps literal terminals cheap:
a multi-character literal reaches exactly one ``j`` from each ``i``.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

from repro.obs.metrics import PERF

from .charset import CharSet
from .fsa import DFA
from .grammar import Grammar, Lit, Nonterminal, Rhs, Symbol, is_terminal


class _PairTable:
    """State-pair sets per grammar symbol, computed to fixpoint."""

    def __init__(self, grammar: Grammar, dfa: DFA) -> None:
        self.grammar = grammar.normalized()
        self.dfa = dfa
        self.states = sorted(dfa.live_states())
        self.pairs: dict[Nonterminal, set[tuple[int, int]]] = defaultdict(set)
        # Instance-local memo, freed with the table (one table per
        # (scope, automaton) pair): at most (distinct literal texts) ×
        # states entries, so it needs no eviction policy — its high-water
        # mark is surfaced via the perf gauge recorded in _solve().
        self._lit_cache: dict[tuple[str, int], int | None] = {}
        self._solve()

    # -- terminal pair sets -------------------------------------------------

    def lit_target(self, text: str, state: int) -> int | None:
        key = (text, state)
        if key not in self._lit_cache:
            self._lit_cache[key] = self.dfa.run_string(state, text)
        return self._lit_cache[key]

    def term_pairs(self, symbol: Symbol) -> Iterable[tuple[int, int]]:
        if isinstance(symbol, Lit):
            for i in self.states:
                j = self.lit_target(symbol.text, i)
                if j is not None:
                    yield (i, j)
        else:  # CharSet
            for i in self.states:
                for label, j in self.dfa.transitions.get(i, ()):
                    if symbol.overlaps(label):
                        yield (i, j)

    def charset_refined(self, charset: CharSet, i: int, j: int) -> CharSet:
        """The characters of ``charset`` that actually drive i → j."""
        overlap = CharSet.empty()
        for label, dst in self.dfa.transitions.get(i, ()):
            if dst == j:
                overlap = overlap.union(charset.intersect(label))
        return overlap

    def symbol_pairs(self, symbol: Symbol) -> set[tuple[int, int]]:
        if is_terminal(symbol):
            return set(self.term_pairs(symbol))
        return self.pairs[symbol]

    def accepts_from(self, root: Nonterminal) -> bool:
        """Some string of ``root`` drives the DFA from start to accept."""
        pairs = self.pairs.get(root)
        if not pairs:
            return False
        start = self.dfa.start
        return any((start, qf) in pairs for qf in self.dfa.accepts)

    # -- fixpoint -------------------------------------------------------------

    def _solve(self) -> None:
        """Worklist fixpoint over the normalized (rhs ≤ 2) grammar.

        This is the paper's Figure 7 organized around "which nonterminal
        gained pairs" instead of raw triples; the computed relation is
        identical.
        """
        rules = self.grammar.productions
        # occurrences[Y] = productions in which Y appears on the rhs;
        # memoized on the (frozen) normalized grammar — one scope serves
        # many DFA queries in a policy cascade
        occurrences = self.grammar._memo_get(("occ_lhs_rhs",))
        if occurrences is None:
            occurrences = defaultdict(list)
            for lhs, rhss in rules.items():
                for rhs in rhss:
                    for symbol in rhs:
                        if isinstance(symbol, Nonterminal):
                            occurrences[symbol].append((lhs, rhs))
            self.grammar._memo_set(("occ_lhs_rhs",), occurrences)

        term_cache: dict[int, set[tuple[int, int]]] = {}

        def sym_pairs(symbol: Symbol) -> set[tuple[int, int]]:
            if isinstance(symbol, Nonterminal):
                return self.pairs[symbol]
            key = id(symbol)
            if key not in term_cache:
                term_cache[key] = set(self.term_pairs(symbol))
            return term_cache[key]

        # id(symbol) -> [pair-count at build time, start -> [ends]];
        # rebuilt only while the symbol's pair set is still growing
        by_start_cache: dict[int, list] = {}

        def by_start_of(symbol: Symbol) -> dict[int, list[int]]:
            found = sym_pairs(symbol)
            key = id(symbol)
            cached = by_start_cache.get(key)
            if cached is not None and cached[0] == len(found):
                return cached[1]
            index: dict[int, list[int]] = {}
            for j, k in found:
                index.setdefault(j, []).append(k)
            by_start_cache[key] = [len(found), index]
            return index

        def eval_rhs(rhs: Rhs) -> set[tuple[int, int]]:
            if not rhs:
                return {(i, i) for i in self.states}
            if len(rhs) == 1:
                return set(sym_pairs(rhs[0]))
            left = sym_pairs(rhs[0])
            by_start = by_start_of(rhs[1])
            out: set[tuple[int, int]] = set()
            for i, j in left:
                ks = by_start.get(j)
                if ks:
                    for k in ks:
                        out.add((i, k))
            return out

        worklist = list(rules)
        queued = set(worklist)
        iterations = 0
        while worklist:
            iterations += 1
            lhs = worklist.pop()
            queued.discard(lhs)
            added = False
            target = self.pairs[lhs]
            for rhs in rules.get(lhs, ()):
                before = len(target)
                target |= eval_rhs(rhs)
                if len(target) != before:
                    added = True
            if added:
                for parent, _ in occurrences.get(lhs, ()):
                    if parent not in queued:
                        queued.add(parent)
                        worklist.append(parent)
        PERF.incr("intersect.fixpoint_iterations", iterations)
        PERF.gauge("intersect.lit_cache.max_size", len(self._lit_cache))


def _cached_pair_table(grammar: Grammar, dfa: DFA) -> _PairTable | None:
    cached = grammar._memo_get(("pairtable", id(dfa)))
    if cached is not None and cached[0] is dfa:
        return cached[1]
    return None


def _pair_table(grammar: Grammar, dfa: DFA) -> _PairTable:
    """Solved :class:`_PairTable`, memoized on the scope grammar.

    The fixpoint solves every nonterminal of the normalized scope
    whatever root is asked about, so one table per (scope, automaton)
    answers every root: the token-class questions of the SQL bridge ask
    about each nonterminal in turn, every non-empty policy check runs
    the same query twice (emptiness verdict, then witness), and a
    cascade probes one scope against several danger DFAs.  Tables are
    read-only after ``_solve``, so sharing them is safe.  The memo value
    keeps a strong reference to the DFA: while the entry lives, no other
    automaton can recycle its ``id``.
    """
    table = _cached_pair_table(grammar, dfa)
    if table is None:
        table = _PairTable(grammar, dfa)
        PERF.incr("intersect.tables")
        grammar._memo_set(("pairtable", id(dfa)), (dfa, table))
    return table


def _reach_trim(result: Grammar, start: Nonterminal) -> Grammar:
    """Reachability-only trim for freshly materialized triple grammars.

    Every triple minted by ``get_triple`` carries a state pair from the
    solved table, i.e. some string of the original nonterminal drives
    the DFA between its states — so every nonterminal of ``result``
    derives a terminal string and ``productive()`` would return the
    full set.  ``trim`` therefore reduces to its reachability filter,
    and since reachable nonterminals only reference reachable ones, no
    individual rule is ever dropped.  Rule lists are shared rather than
    re-added (the untrimmed grammar is discarded on return); iteration
    over ``sorted(keep)`` and the label copy mirror ``trim`` exactly,
    keeping the production order — and hence output bytes — identical.
    """
    if not result.productions.get(start):
        # no accepting pair: degenerate empty-language grammar
        return result.trim(start)
    keep = result.reachable(start)
    trimmed = Grammar(start)
    productions = trimmed.productions
    nrules = 0
    source = result.productions
    for nt in sorted(keep):
        rules = source.get(nt) or []
        productions[nt] = rules
        nrules += len(rules)
    trimmed._nrules = nrules
    trimmed.copy_labels_from(result, keep)
    return trimmed


def intersection_is_empty(grammar: Grammar, root: Nonterminal, dfa: DFA) -> bool:
    """True iff L(grammar, root) ∩ L(dfa) = ∅ (no triple grammar built).

    A table already solved for this (scope, automaton) pair answers
    exactly and at once.  Otherwise the charset/length abstraction
    (:func:`repro.lang.abstraction.prefilter_decides_empty`) goes first:
    it over-approximates ``L(grammar, root)``, so a "provably empty"
    answer from it is always the exact answer and the pair fixpoint can
    be skipped.  Anything else falls through to a new table.
    """
    from .abstraction import prefilter_decides_empty

    table = _cached_pair_table(grammar, dfa)
    if table is None:
        if prefilter_decides_empty(grammar, root, dfa):
            PERF.incr("prefilter.hits")
            return True
        PERF.incr("prefilter.misses")
        table = _pair_table(grammar, dfa)
    return not table.accepts_from(root)


def intersect(
    grammar: Grammar, root: Nonterminal, dfa: DFA
) -> tuple[Grammar, Nonterminal]:
    """The annotated intersection grammar (paper Figure 7 + TAINTIF).

    Returns ``(result, start)``; the result is trimmed.  Labels on
    ``X_{ij}`` mirror the labels on ``X`` (Theorem 3.1).
    """
    table = _pair_table(grammar, dfa)
    normalized = table.grammar
    result = Grammar()
    triple: dict[tuple[Nonterminal, int, int], Nonterminal] = {}

    def get_triple(nt: Nonterminal, i: int, j: int) -> Nonterminal:
        key = (nt, i, j)
        if key not in triple:
            fresh = result.fresh(f"{nt.name}@{i},{j}")
            triple[key] = fresh
            # TAINTIF: propagate source labels through the construction
            # (inlined add_label: ``fresh`` is already in productions and
            # no memo has been taken on the result grammar yet).
            labels = normalized.labels.get(nt)
            if labels:
                result.labels[fresh] = set(labels)
        return triple[key]

    def rhs_symbol(symbol: Symbol, i: int, j: int) -> Symbol | None:
        """The (i, j)-restriction of one rhs symbol, or None if invalid."""
        kind = type(symbol)
        if kind is Nonterminal:
            if (i, j) in table.pairs[symbol]:
                return get_triple(symbol, i, j)
            return None
        if kind is Lit:
            return symbol if table.lit_target(symbol.text, i) == j else None
        refined = table.charset_refined(symbol, i, j)
        return refined if refined else None

    # Pair sets are frozen once the table is solved, so terminal pair
    # sets and the start-state index of each symbol are computed once.
    # by_start preserves the pair set's own iteration order, keeping
    # triple creation order (and hence output bytes) identical to the
    # direct `for i2, mid in pairs if i2 == i` scan it replaces.
    term_cache: dict[int, set[tuple[int, int]]] = {}
    by_start_cache: dict[int, dict[int, list[int]]] = {}

    def by_start_of(symbol: Symbol) -> dict[int, list[int]]:
        key = id(symbol)
        index = by_start_cache.get(key)
        if index is None:
            if isinstance(symbol, Nonterminal):
                found = table.pairs[symbol]
            else:
                found = term_cache.get(key)
                if found is None:
                    found = set(table.term_pairs(symbol))
                    term_cache[key] = found
            index = {}
            for i2, mid in found:
                index.setdefault(i2, []).append(mid)
            by_start_cache[key] = index
        return index

    for lhs, rhss in normalized.productions.items():
        # Pre-dispatch each rhs once per lhs instead of once per state
        # pair; the prepared tuples carry no side effects, so hoisting
        # them leaves triple creation order unchanged.
        prepared: list[tuple] | None = None
        for i, j in table.pairs[lhs]:
            if prepared is None:
                prepared = []
                for rhs in rhss:
                    if not rhs:
                        prepared.append((0, None, None, None))
                    elif len(rhs) == 1:
                        prepared.append((1, rhs[0], None, None))
                    else:
                        first, second = rhs
                        prepared.append((2, first, second, by_start_of(first)))
            lhs_triple = get_triple(lhs, i, j)
            bodies: list[Rhs] = []
            for kind, first, second, index in prepared:
                if kind == 2:
                    for mid in index.get(i, ()):
                        left = rhs_symbol(first, i, mid)
                        right = rhs_symbol(second, mid, j)
                        if left is not None and right is not None:
                            bodies.append((left, right))
                elif kind == 1:
                    restricted = rhs_symbol(first, i, j)
                    if restricted is not None:
                        bodies.append((restricted,))
                elif i == j:
                    bodies.append(())
            if bodies:
                result._bulk_add(lhs_triple, bodies)

    start = result.fresh(f"{root.name}∩")
    result.start = start
    for label in normalized.labels.get(root, ()):
        result.add_label(start, label)
    for qf in dfa.accepts:
        if (dfa.start, qf) in table.pairs[root]:
            result.add(start, (get_triple(root, dfa.start, qf),))
    return _reach_trim(result, start), start
