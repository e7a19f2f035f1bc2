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

from repro.obs.metrics import PERF

from .charset import CharSet
from .fsa import DFA
from .grammar import Grammar, Lit, Nonterminal, Symbol
from .pairs import PairTable, Rows, trim_materialized


#: the jump table of a state without transitions, and the rows of a
#: nonterminal without pairs
_EMPTY: dict = {}


class _PairTable(PairTable):
    """The solved pair table of a grammar against one DFA."""

    def __init__(self, grammar: Grammar, dfa: DFA) -> None:
        super().__init__(grammar.normalized(), sorted(dfa.live_states()))
        self.dfa = dfa
        self.accept_mask = sum(1 << q for q in dfa.accepts)
        # Instance-local memo, freed with the table (one table per
        # (scope, automaton) pair): one row per distinct literal text,
        # so it needs no eviction policy — its high-water mark is
        # surfaced via the perf gauge below.
        self._lit_rows: dict[str, Rows] = {}
        PERF.incr("intersect.fixpoint_iterations", self.solve())
        PERF.gauge("intersect.lit_cache.max_size", len(self._lit_rows))

    def lit_row(self, text: str) -> Rows:
        """Where ``text`` takes each live state, run once per table
        (ASCII characters straight through the DFA's jump tables)."""
        row = self._lit_rows.get(text)
        if row is None:
            row = self._lit_rows[text] = {}
            jumps, step = self.dfa._step_tables(), self.dfa.step
            for i in self.states:
                state = i
                for ch in text:
                    state = jumps.get(state, _EMPTY).get(ch) if ch < "\x80" else step(state, ch)
                    if state is None:
                        break
                else:
                    row[i] = 1 << state
        return row

    def term_rows(self, symbol: Symbol) -> Rows:
        if isinstance(symbol, Lit):
            return self.lit_row(symbol.text)
        row: Rows = {}
        for i in self.states:  # CharSet
            mask = 0
            for label, j in self.dfa.transitions.get(i, ()):
                if symbol.overlaps(label):
                    mask |= 1 << j
            if mask:
                row[i] = mask
        return row

    def term_symbol(self, symbol: Symbol, i: int, j: int) -> Symbol | None:
        """The (i, j)-restriction of a terminal: a literal that drives
        i → j, or the characters of a charset that do."""
        if type(symbol) is Lit:
            return symbol if self.lit_row(symbol.text).get(i, 0) >> j & 1 else None
        refined = CharSet.empty()
        for label, dst in self.dfa.transitions.get(i, ()):
            if dst == j:
                refined = refined.union(symbol.intersect(label))
        return refined if refined else None

    def accepts_from(self, root: Nonterminal) -> int:
        """The accepting states some string of ``root`` drives the DFA
        to from its start, as a mask (0 when there are none)."""
        return self.rows.get(root, _EMPTY).get(self.dfa.start, 0) & self.accept_mask


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
    ends = table.accepts_from(root)
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
    for qf in dfa.accepts:
        if ends >> qf & 1:
            result.add(start, (get_triple(root, dfa.start, qf),))
    return trim_materialized(result, start), start
