"""The pair kernel shared by Figure 7 and transducer images.

The CFG ∩ FSA intersection (paper Figure 7) and the image of a grammar
under an FST (§3.1.2) are one construction: nonterminals become triples
``X_{ij}`` over automaton state pairs, and ``TAINTIF`` gives every triple
the labels of ``X``.  :class:`PairTable` runs its three steps for both:

1. the worklist *pair fixpoint* over the normalized (rhs ≤ 2) grammar:
   for every nonterminal ``X`` the state pairs ``(i, j)`` some string of
   ``X`` drives the automaton across;
2. the top-down *reachable-triple prepass* from the accepting start
   pairs, which decides the triples a product keeps without creating
   one;
3. the *materialization* of exactly those triples.

Every relation is held bit-parallel, as :data:`Rows`: one integer per
start state ``i`` whose bit ``j`` says the pair ``(i, j)`` is in it.
The join ``A·B`` is then row by row: row ``i`` of the result is the OR
of ``B[j]`` over the set bits ``j`` of ``A[i]``.

Only two things differ between the callers, and each passes them in: a
subclass's :meth:`PairTable.term_rows` says which pairs a terminal
crosses (a DFA run, or the input side of an FST), and the ``mint`` and
``term_symbol`` functions given to :meth:`PairTable.materialize` say how
a kept triple is named and a kept terminal is written out.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Iterator, Sequence

from .grammar import Grammar, Nonterminal, Rhs, Symbol

#: start state → bitmask of the end states paired with it
Rows = dict[int, int]


def bits(mask: int) -> Iterator[int]:
    """The set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def count_pairs(rows_of: dict[Nonterminal, Rows]) -> int:
    """How many triples a ``nonterminal → rows`` map holds."""
    return sum(mask.bit_count() for rows in rows_of.values() for mask in rows.values())


class PairTable:
    """State-pair rows per nonterminal of a normalized grammar.

    ``rows`` is filled by :meth:`solve`; a table is read-only after
    that.  Terminal rows are computed once per symbol and shared by all
    three steps.
    """

    def __init__(self, grammar: Grammar, states: Sequence[int]) -> None:
        self.grammar = grammar
        self.states = states
        self.rows: dict[Nonterminal, Rows] = defaultdict(dict)
        self.term_cache: dict[int, Rows] = {}

    def term_rows(self, symbol: Symbol) -> Rows:
        """The pairs the terminal ``symbol`` crosses (the caller's step)."""
        raise NotImplementedError

    def sym_rows(self, symbol: Symbol) -> Rows:
        if type(symbol) is Nonterminal:
            return self.rows[symbol]
        key = id(symbol)
        found = self.term_cache.get(key)
        if found is None:
            found = self.term_cache[key] = self.term_rows(symbol)
        return found

    # -- 1. pair fixpoint ----------------------------------------------------

    def solve(self) -> int:
        """Worklist fixpoint; returns its iteration count.

        The paper's Figure 7 organized around "which nonterminal gained
        pairs" instead of raw triples; the computed relation is the same.
        """
        rules = self.grammar.productions
        # parents[Y] = lhs of every production with Y on its rhs; memoized
        # on the (frozen) normalized grammar, which one scope shares
        # across the automata of a policy cascade and across images
        parents = self.grammar._memo_get(("occ_lhs",))
        if parents is None:
            parents = defaultdict(list)
            for lhs, rhss in rules.items():
                for rhs in rhss:
                    for symbol in rhs:
                        if isinstance(symbol, Nonterminal):
                            parents[symbol].append(lhs)
            self.grammar._memo_set(("occ_lhs",), parents)
        rows = self.rows
        sym_rows = self.sym_rows
        identity = {i: 1 << i for i in self.states}
        # every rule as [left rows, right rows (None if unary), its
        # nonterminal operands (None for a terminal or none), the clock at
        # its last run]; rows are resolved once, a nonterminal's being
        # one dict grown in place
        compiled: dict[Nonterminal, list[list]] = {}
        for lhs, rhss in rules.items():
            entries = compiled[lhs] = []
            for rhs in rhss:
                first, second = (rhs + (None, None))[:2]
                entries.append([sym_rows(first) if rhs else identity,
                                sym_rows(second) if second is not None else None,
                                first if type(first) is Nonterminal else None,
                                second if type(second) is Nonterminal else None, -1])
        # the clock ticks whenever a nonterminal gains pairs; a rule whose
        # operands gained none since its last run would add nothing, so
        # it is skipped (a rule over terminals alone runs once)
        clock = 0
        changed_at: dict[Nonterminal | None, int] = defaultdict(int)

        worklist = list(rules)
        queued = set(worklist)
        iterations = 0
        while worklist:
            iterations += 1
            lhs = worklist.pop()
            queued.discard(lhs)
            added = False
            target = rows[lhs]
            for rule in compiled[lhs]:
                left, right, first, second, seen = rule
                if seen >= 0 and changed_at[first] <= seen and changed_at[second] <= seen:
                    continue
                rule[4] = clock
                if right is None:
                    produced = left.items() if left is not target else ()
                else:
                    # the join, taken whole before it is merged, since it
                    # may read the lhs's own rows
                    produced = []
                    for i, mask in left.items():
                        row = 0
                        while mask:
                            low = mask & -mask
                            row |= right.get(low.bit_length() - 1, 0)
                            mask ^= low
                        if row:
                            produced.append((i, row))
                for i, row in produced:
                    old = target.get(i, 0)
                    if row | old != old:
                        target[i] = row | old
                        added = True
            if added:
                clock += 1
                changed_at[lhs] = clock
                for parent in parents.get(lhs, ()):
                    if parent not in queued:
                        queued.add(parent)
                        worklist.append(parent)
        return iterations

    # -- 2. reachable-triple prepass -----------------------------------------

    def reachable_triples(
        self,
        root: Nonterminal,
        start: int,
        ends: int,
        crossings: dict[int, tuple[Symbol, Rows]] | None = None,
    ) -> dict[Nonterminal, Rows]:
        """The triples reachable top-down from ``(root, start, q)`` for
        every accepting ``q`` in the mask ``ends``, as rows.

        A body of ``X_{ij}`` references ``Y_{i,mid}`` / ``B_{mid,j}`` only
        when both sides cross solved pairs, which the table decides
        alone.  The fixpoint made every triple productive, so these are
        exactly the triples a full trim of the eager product would keep.
        The walk carries end-state masks: a popped ``(X, i, ends)``
        holds only the ends not seen before at ``(X, i)``.

        With ``crossings``, the walk also records the terminal crossings
        of the kept bodies, as ``id(t) → (t, rows)``: a lone terminal's
        under its triple's own pair (whether or not it crosses it), and
        each terminal side of a kept two-symbol body.
        """
        sym_rows = self.sym_rows
        productions = self.grammar.productions
        kept: dict[Nonterminal, Rows] = {}
        stack: list[tuple[Nonterminal, int, int]] = []

        def reach(symbol: Symbol, i: int, mask: int) -> None:
            """Keep the triples ``(symbol, i, j)`` for ``j`` in ``mask``,
            or record a terminal's crossings."""
            if not mask:
                return
            if type(symbol) is Nonterminal:
                row = kept.get(symbol)
                if row is None:
                    row = kept[symbol] = {}
                new = mask & ~row.get(i, 0)
                if new:
                    row[i] = row.get(i, 0) | new
                    stack.append((symbol, i, new))
            elif crossings is not None:
                row = crossings.setdefault(id(symbol), (symbol, {}))[1]
                row[i] = row.get(i, 0) | mask

        # each lhs's nonempty rules as (first, second, first's rows,
        # second's rows or None if unary), resolved on first visit
        compiled: dict[Nonterminal, list[tuple]] = {}
        reach(root, start, ends)
        while stack:
            lhs, i, ends = stack.pop()
            prepared = compiled.get(lhs)
            if prepared is None:
                prepared = compiled[lhs] = [
                    (rhs[0], rhs[-1], sym_rows(rhs[0]),
                     sym_rows(rhs[1]) if len(rhs) == 2 else None)
                    for rhs in productions.get(lhs, ()) if rhs
                ]
            for first, second, first_rows, second_rows in prepared:
                if second_rows is None:
                    nt = type(first) is Nonterminal
                    reach(first, i, first_rows.get(i, 0) & ends if nt else ends)
                    continue
                # the splits ``mid`` with a kept body, gathered for one
                # reach of the left side
                left = 0
                for mid in bits(first_rows.get(i, 0)):
                    hit = second_rows.get(mid, 0) & ends
                    if hit:
                        left |= 1 << mid
                        reach(second, mid, hit)
                reach(first, i, left)
        return kept

    # -- 3. materialization --------------------------------------------------

    def materialize(
        self,
        result: Grammar,
        kept: dict[Nonterminal, Rows],
        mint: Callable[[Nonterminal, int, int], Nonterminal],
        term_symbol: Callable[[Symbol, int, int], Symbol | None],
    ) -> Callable[[Nonterminal, int, int], Nonterminal]:
        """Write the rules of every kept triple into ``result``.

        ``mint(X, i, j)`` creates the nonterminal of a triple in
        ``result``; ``term_symbol(t, i, j)`` is the output of terminal
        ``t`` across ``(i, j)``, or None when it has none.  Triples are
        visited in normalized-rule order, then ascending ``i`` and ``j``,
        and a two-symbol body's splits in ascending ``mid``, so creation
        order is a function of the relation alone.  A kept triple always
        has a valid body; the only triples left without rules are
        orphans minted for the left side of a dropped body, which
        :func:`trim_materialized` filters out.  Returns the triple
        lookup, for the caller's start rules.
        """
        normalized = self.grammar
        rows = self.rows
        sym_rows = self.sym_rows
        triple: dict[tuple[Nonterminal, int, int], Nonterminal] = {}

        def get_triple(nt: Nonterminal, i: int, j: int) -> Nonterminal:
            key = (nt, i, j)
            if key not in triple:
                fresh = mint(nt, i, j)
                triple[key] = fresh
                # TAINTIF (inlined add_label: ``fresh`` is already in
                # productions and no memo has been taken on ``result``)
                labels = normalized.labels.get(nt)
                if labels:
                    result.labels[fresh] = set(labels)
            return triple[key]

        def rhs_symbol(symbol: Symbol, i: int, j: int) -> Symbol | None:
            if type(symbol) is Nonterminal:
                if rows[symbol].get(i, 0) >> j & 1:
                    return get_triple(symbol, i, j)
                return None
            return term_symbol(symbol, i, j)

        for lhs, rhss in normalized.productions.items():
            kept_rows = kept.get(lhs)
            if not kept_rows:
                continue
            for i in sorted(kept_rows):
                # each two-symbol body's splits from ``i``, ascending
                splits = [
                    list(bits(sym_rows(rhs[0]).get(i, 0))) if len(rhs) == 2 else ()
                    for rhs in rhss
                ]
                for j in bits(kept_rows[i]):
                    lhs_triple = get_triple(lhs, i, j)
                    bodies: list[Rhs] = []
                    for rhs, mids in zip(rhss, splits):
                        if len(rhs) == 2:
                            for mid in mids:
                                left = rhs_symbol(rhs[0], i, mid)
                                right = rhs_symbol(rhs[1], mid, j)
                                if left is not None and right is not None:
                                    bodies.append((left, right))
                        elif rhs:
                            restricted = rhs_symbol(rhs[0], i, j)
                            if restricted is not None:
                                bodies.append((restricted,))
                        elif i == j:
                            bodies.append(())
                    result._bulk_add(lhs_triple, bodies)
        return get_triple


def trim_materialized(result: Grammar, start: Nonterminal) -> Grammar:
    """``result.trim(start)`` specialized to a materialized product.

    The prepass guarantees every materialized triple is productive and
    reachable from ``start``, and ``fresh()`` inserts nonterminals into
    the production dict at creation, so the insertion order already
    equals the uid order ``trim`` would sort into.  What a full trim
    removes here is only (a) orphan triples, created on first reference
    from a body that was then dropped because its other side had no
    crossing, which have empty rule lists, and (b) orphan multi-output
    terminal wrappers of an image, which have rules but are referenced by
    no surviving body.  One linear pass finds both.
    """
    if not result.productions.get(start):
        # empty language (no accepting crossing): defer to the general
        # trim for the exact degenerate shape
        return result.trim(start)
    referenced: set[Nonterminal] = set()
    for rules in result.productions.values():
        for rhs in rules:
            for s in rhs:
                if type(s) is Nonterminal:
                    referenced.add(s)
    trimmed = Grammar(start)
    productions = trimmed.productions
    nrules = 0
    for nt, rules in result.productions.items():
        if rules and (nt in referenced or nt is start):
            productions[nt] = rules
            nrules += len(rules)
    trimmed._nrules = nrules
    trimmed.copy_labels_from(result, productions)
    return trimmed
