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

Only two things differ between the callers, and each passes them in: a
subclass's :meth:`PairTable.term_pairs` says which pairs a terminal
crosses (a DFA run, or the input side of an FST), and the ``mint`` and
``term_symbol`` functions given to :meth:`PairTable.materialize` say how
a kept triple is named and a kept terminal is written out.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable, Iterable, Sequence

from .grammar import Grammar, Nonterminal, Rhs, Symbol

Pair = tuple[int, int]
Triple = tuple[Nonterminal, int, int]


class PairTable:
    """State-pair sets per nonterminal of a normalized grammar.

    ``pairs`` is filled by :meth:`solve`; a table is read-only after
    that.  Terminal pair sets are computed once per symbol and shared by
    all three steps.
    """

    def __init__(self, grammar: Grammar, states: Sequence[int]) -> None:
        self.grammar = grammar
        self.states = states
        self.pairs: dict[Nonterminal, set[Pair]] = defaultdict(set)
        self.term_cache: dict[int, set[Pair]] = {}
        self._starts: dict[int, dict[int, list[int]]] = {}

    def term_pairs(self, symbol: Symbol) -> Iterable[Pair]:
        """The pairs the terminal ``symbol`` crosses (the caller's step)."""
        raise NotImplementedError

    def sym_pairs(self, symbol: Symbol) -> set[Pair]:
        if isinstance(symbol, Nonterminal):
            return self.pairs[symbol]
        key = id(symbol)
        found = self.term_cache.get(key)
        if found is None:
            found = self.term_cache[key] = set(self.term_pairs(symbol))
        return found

    def by_start(self, symbol: Symbol) -> dict[int, list[int]]:
        """``symbol``'s solved pairs indexed by start state, in the pair
        set's own iteration order."""
        key = id(symbol)
        index = self._starts.get(key)
        if index is None:
            index = {}
            for i, j in self.sym_pairs(symbol):
                index.setdefault(i, []).append(j)
            self._starts[key] = index
        return index

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
        sym_pairs = self.sym_pairs
        states = self.states

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

        def eval_rhs(rhs: Rhs) -> set[Pair]:
            if not rhs:
                return {(i, i) for i in states}
            if len(rhs) == 1:
                return set(sym_pairs(rhs[0]))
            left = sym_pairs(rhs[0])
            by_start = by_start_of(rhs[1])
            out: set[Pair] = set()
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
        ends: Iterable[int],
        crossings: dict[tuple[int, int, int], Symbol] | None = None,
    ) -> set[Triple]:
        """The triples reachable top-down from ``(root, start, q)`` for
        every accepting ``q`` in ``ends``.

        A body of ``X_{ij}`` references ``Y_{i,mid}`` / ``B_{mid,j}`` only
        when both sides cross solved pairs, which the table decides
        alone.  The fixpoint made every triple productive, so these are
        exactly the triples a full trim of the eager product would keep.

        With ``crossings``, the walk also records the terminal crossings
        of the kept bodies, keyed ``(id(t), i, j)``: a lone terminal's
        under its triple's own pair (whether or not it crosses it), and
        each terminal side of a kept two-symbol body.
        """
        pairs = self.pairs
        members: set[Triple] = set()
        stack: list[Triple] = []
        for q in ends:
            members.add((root, start, q))
            stack.append((root, start, q))
        while stack:
            lhs, i, j = stack.pop()
            for rhs in self.grammar.productions.get(lhs, ()):
                if not rhs:
                    continue
                if len(rhs) == 1:
                    symbol = rhs[0]
                    if type(symbol) is Nonterminal:
                        if (i, j) in pairs[symbol]:
                            succ = (symbol, i, j)
                            if succ not in members:
                                members.add(succ)
                                stack.append(succ)
                    elif crossings is not None:
                        crossings[(id(symbol), i, j)] = symbol
                    continue
                first, second = rhs
                second_pairs = self.sym_pairs(second)
                first_is_nt = type(first) is Nonterminal
                second_is_nt = type(second) is Nonterminal
                collect = crossings is not None and not (first_is_nt and second_is_nt)
                for mid in self.by_start(first).get(i, ()):
                    if (mid, j) not in second_pairs:
                        continue
                    if first_is_nt:
                        succ = (first, i, mid)
                        if succ not in members:
                            members.add(succ)
                            stack.append(succ)
                    if second_is_nt:
                        succ = (second, mid, j)
                        if succ not in members:
                            members.add(succ)
                            stack.append(succ)
                    if collect:
                        if not first_is_nt:
                            crossings[(id(first), i, mid)] = first
                        if not second_is_nt:
                            crossings[(id(second), mid, j)] = second
        return members

    # -- 3. materialization --------------------------------------------------

    def materialize(
        self,
        result: Grammar,
        members: set[Triple],
        mint: Callable[[Nonterminal, int, int], Nonterminal],
        term_symbol: Callable[[Symbol, int, int], Symbol | None],
    ) -> Callable[[Nonterminal, int, int], Nonterminal]:
        """Write the rules of every member triple into ``result``.

        ``mint(X, i, j)`` creates the nonterminal of a triple in
        ``result``; ``term_symbol(t, i, j)`` is the output of terminal
        ``t`` across ``(i, j)``, or None when it has none.  Triples are
        visited in normalized-rule order, then pair-set order, the order
        the eager construction used, so members get exactly the rules it
        gave them.  A member's pair always has a valid body; the only
        triples left without rules are orphans minted for one side of a
        dropped body, which :func:`trim_materialized` filters out.
        Returns the triple lookup, for the caller's start rules.
        """
        normalized = self.grammar
        pairs = self.pairs
        triple: dict[Triple, Nonterminal] = {}

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
                if (i, j) in pairs[symbol]:
                    return get_triple(symbol, i, j)
                return None
            return term_symbol(symbol, i, j)

        for lhs, rhss in normalized.productions.items():
            # Pre-dispatch each rhs once per lhs instead of once per state
            # pair; the prepared tuples carry no side effects, so hoisting
            # them leaves triple creation order unchanged.
            prepared: list[tuple] | None = None
            for i, j in pairs[lhs]:
                if (lhs, i, j) not in members:
                    continue
                if prepared is None:
                    prepared = []
                    for rhs in rhss:
                        if not rhs:
                            prepared.append((0, None, None, None))
                        elif len(rhs) == 1:
                            prepared.append((1, rhs[0], None, None))
                        else:
                            first, second = rhs
                            prepared.append((2, first, second, self.by_start(first)))
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
