"""CFG ∩ FSA intersection with taint propagation (paper Figure 7).

Given a grammar ``G``, a root nonterminal, and a DFA ``F``, construct a
grammar for ``L(G, root) ∩ L(F)`` whose nonterminals are triples
``X_{ij}`` ("X, entered at automaton state *i*, leaving at *j*").  The
paper's ``TAINTIF`` step — every ``X_{ij}`` inherits the taint labels of
``X`` — is what makes Theorem 3.1 hold: tainted-substring boundaries
survive the intersection.

The construction is the pair kernel of :mod:`repro.lang.pairs` with a
DFA run as its terminal step.  The pair fixpoint alone answers
emptiness queries, which is all the policy checks need; the triple
grammar is materialized on demand, for witnesses, and only from the
triples that derive from an accepting start pair ``S_{q0,qf}``.

Working over a *deterministic* automaton keeps literal terminals cheap:
a multi-character literal reaches exactly one ``j`` from each ``i``.
"""

from __future__ import annotations

from typing import Iterable

from repro.obs.metrics import PERF

from .charset import CharSet
from .fsa import DFA
from .grammar import Grammar, Lit, Nonterminal, Symbol
from .pairs import Pair, PairTable, trim_materialized


class _PairTable(PairTable):
    """The solved pair table of a grammar against one DFA."""

    def __init__(self, grammar: Grammar, dfa: DFA) -> None:
        super().__init__(grammar.normalized(), sorted(dfa.live_states()))
        self.dfa = dfa
        # Instance-local memo, freed with the table (one table per
        # (scope, automaton) pair): at most (distinct literal texts) ×
        # states entries, so it needs no eviction policy — its high-water
        # mark is surfaced via the perf gauge below.
        self._lit_cache: dict[tuple[str, int], int | None] = {}
        PERF.incr("intersect.fixpoint_iterations", self.solve())
        PERF.gauge("intersect.lit_cache.max_size", len(self._lit_cache))

    def lit_target(self, text: str, state: int) -> int | None:
        key = (text, state)
        if key not in self._lit_cache:
            self._lit_cache[key] = self.dfa.run_string(state, text)
        return self._lit_cache[key]

    def term_pairs(self, symbol: Symbol) -> Iterable[Pair]:
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

    def term_symbol(self, symbol: Symbol, i: int, j: int) -> Symbol | None:
        """The (i, j)-restriction of a terminal: a literal that drives
        i → j, or the characters of a charset that do."""
        if type(symbol) is Lit:
            return symbol if self.lit_target(symbol.text, i) == j else None
        refined = CharSet.empty()
        for label, dst in self.dfa.transitions.get(i, ()):
            if dst == j:
                refined = refined.union(symbol.intersect(label))
        return refined if refined else None

    def accepts_from(self, root: Nonterminal) -> bool:
        """Some string of ``root`` drives the DFA from start to accept."""
        pairs = self.pairs.get(root)
        if not pairs:
            return False
        start = self.dfa.start
        return any((start, qf) in pairs for qf in self.dfa.accepts)


def _pair_table(grammar: Grammar, dfa: DFA) -> _PairTable:
    """Solved :class:`_PairTable`, memoized on the scope grammar.

    The fixpoint solves every nonterminal of the normalized scope
    whatever root is asked about, so one table per (scope, automaton)
    answers every root: the token-class questions of the SQL bridge ask
    about each nonterminal in turn, every non-empty policy check runs
    the same query twice (emptiness verdict, then witness), and a
    cascade probes one scope against several danger DFAs.  Tables are
    read-only after solving, so sharing them is safe.  The memo value
    keeps a strong reference to the DFA: while the entry lives, no other
    automaton can recycle its ``id``.
    """
    cached = grammar._memo_get(("pairtable", id(dfa)))
    if cached is not None and cached[0] is dfa:
        return cached[1]
    table = _PairTable(grammar, dfa)
    PERF.incr("intersect.tables")
    grammar._memo_set(("pairtable", id(dfa)), (dfa, table))
    return table


def intersection_is_empty(grammar: Grammar, root: Nonterminal, dfa: DFA) -> bool:
    """True iff L(grammar, root) ∩ L(dfa) = ∅ (no triple grammar built)."""
    return not _pair_table(grammar, dfa).accepts_from(root)


def intersect(
    grammar: Grammar, root: Nonterminal, dfa: DFA
) -> tuple[Grammar, Nonterminal]:
    """The annotated intersection grammar (paper Figure 7 + TAINTIF).

    Returns ``(result, start)``; the result is trimmed.  Labels on
    ``X_{ij}`` mirror the labels on ``X`` (Theorem 3.1).  Only the
    triples that derive from an accepting start pair are built.
    """
    table = _pair_table(grammar, dfa)
    ends = [qf for qf in dfa.accepts if (dfa.start, qf) in table.pairs[root]]
    result = Grammar()
    get_triple = table.materialize(
        result,
        table.reachable_triples(root, dfa.start, ends),
        lambda nt, i, j: result.fresh(f"{nt.name}@{i},{j}"),
        table.term_symbol,
    )
    start = result.fresh(f"{root.name}∩")
    result.start = start
    for label in table.grammar.labels.get(root, ()):
        result.add_label(start, label)
    for qf in ends:
        result.add(start, (get_triple(root, dfa.start, qf),))
    return trim_materialized(result, start), start
