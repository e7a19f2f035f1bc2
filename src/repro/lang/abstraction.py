"""Sound string abstractions: a cheap pre-filter before CFG ∩ FSA.

The phase-2 cascade and every :class:`SinkPolicy` substring check decide
emptiness of ``L(G, X) ∩ L(D)`` with the full pair-fixpoint product
construction (:mod:`repro.lang.intersect`).  Most of those queries are
*obviously* empty: the attack automaton needs a quote or a metacharacter
the subgrammar can never produce, or needs more characters than the
subgrammar can ever emit.  Following the length/charset domains of the
string-constraint-solving literature, this module over-approximates
``L(G, X)`` by a :class:`StringAbstraction` —

    ``L(G, X)  ⊆  { w ∈ closure(X)* : lo ≤ |w| ≤ hi }``

where ``closure(X)`` is the union of every character any derivation can
emit and ``[lo, hi]`` bounds derivation lengths (``hi = None`` when the
language is unbounded).  If the abstraction's intersection with ``L(D)``
is empty, the exact intersection is empty *a fortiori* and the product
construction can be skipped.

Soundness (DESIGN.md §5h carries the full argument):

* every character of a string of ``L(G, X)`` lies in ``closure(X)``, so
  any accepting DFA run over such a string uses only edges whose label
  overlaps ``closure(X)`` — runs never leave the *pruned* automaton;
* therefore if no accepting state is reachable in the pruned automaton,
  or every pruned accepting path is longer than ``hi``, or the pruned
  live subgraph is acyclic and its longest accepting path is shorter
  than ``lo``, then no string of the abstraction — hence none of
  ``L(G, X)`` — is accepted.

The pre-filter only ever answers "provably empty"; every other outcome
falls through to the exact check, so verdicts (and the bytes of every
report) are identical with the filter on or off.
"""

from __future__ import annotations

import os
from collections import deque

from repro.obs.timeline import TIMELINE
from repro.obs.metrics import PERF

from .charset import CharSet
from .fsa import DFA
from .grammar import Grammar, Lit, Nonterminal

#: Kill switch (for measurement and for the cross-check tests): set the
#: environment variable ``REPRO_PREFILTER=0`` or toggle at runtime.
ENABLED = os.environ.get("REPRO_PREFILTER", "1") != "0"

#: Lengths above this are treated as unbounded — the finite bound buys
#: nothing once it exceeds any plausible automaton diameter.
_MAX_TRACKED_LEN = 1 << 20


class StringAbstraction:
    """Charset closure + length interval for one grammar root."""

    __slots__ = ("closure", "min_len", "max_len")

    def __init__(
        self, closure: CharSet, min_len: int, max_len: int | None
    ) -> None:
        self.closure = closure
        self.min_len = min_len
        self.max_len = max_len

    def __repr__(self) -> str:
        hi = "∞" if self.max_len is None else self.max_len
        return f"StringAbstraction({self.closure!r}, len=[{self.min_len},{hi}])"


def abstraction_of(grammar: Grammar, root: Nonterminal) -> StringAbstraction:
    """The abstraction of ``L(grammar, root)``; memoized on the grammar's
    revision stamp so repeated queries against one scope are O(1)."""
    cached = grammar._memo_get(("abs", root))
    if cached is not None:
        return cached
    closure = grammar.charset_closure(root)
    min_len = _min_lengths(grammar, root)
    max_len = _max_length(grammar, root)
    abstraction = StringAbstraction(closure, min_len, max_len)
    grammar._memo_set(("abs", root), abstraction)
    return abstraction


def _symbol_min(symbol, min_len: dict[Nonterminal, int]) -> int:
    if isinstance(symbol, Lit):
        return len(symbol.text)
    if isinstance(symbol, CharSet):
        return 1
    return min_len.get(symbol, _MAX_TRACKED_LEN)


def _min_lengths(grammar: Grammar, root: Nonterminal) -> int:
    """Shortest-derivation fixpoint; returns the root's minimum length
    (0 if the root derives nothing — harmless for a *lower* bound)."""
    reachable = grammar.reachable(root)
    min_len: dict[Nonterminal, int] = {}
    changed = True
    while changed:
        changed = False
        for nt in reachable:
            best = min_len.get(nt, _MAX_TRACKED_LEN)
            for rhs in grammar.productions.get(nt, ()):
                total = 0
                for symbol in rhs:
                    total += _symbol_min(symbol, min_len)
                    if total >= _MAX_TRACKED_LEN:
                        total = _MAX_TRACKED_LEN
                        break
                if total < best:
                    best = total
            if best < min_len.get(nt, _MAX_TRACKED_LEN):
                min_len[nt] = best
                changed = True
    found = min_len.get(root, _MAX_TRACKED_LEN)
    return 0 if found >= _MAX_TRACKED_LEN else found


def _max_length(grammar: Grammar, root: Nonterminal) -> int | None:
    """Longest-derivation bound, or None when unbounded (any reachable
    cycle, or any bound overflowing the tracked range)."""
    reachable = grammar.reachable(root)
    cyclic = grammar.cyclic_nonterminals()
    if any(nt in cyclic for nt in reachable):
        return None
    productions = grammar.productions
    # iterative post-order DFS over the (acyclic) reachable subgrammar:
    # no recursion, so chains deeper than the interpreter's recursion
    # limit need no process-wide limit bump
    memo: dict[Nonterminal, int | None] = {}
    stack = [(root, _nonterminals_of(productions.get(root, ())))]
    while stack:
        nt, pending = stack[-1]
        for symbol in pending:
            if symbol not in memo:
                stack.append(
                    (symbol, _nonterminals_of(productions.get(symbol, ())))
                )
                break
        else:
            stack.pop()
            memo[nt] = _longest_rhs(productions.get(nt, ()), memo)
    return memo[root]


def _nonterminals_of(rhss):
    return iter([s for rhs in rhss for s in rhs if isinstance(s, Nonterminal)])


def _longest_rhs(rhss, memo: dict[Nonterminal, int | None]) -> int | None:
    """The longest derivation over ``rhss`` given every nonterminal's
    bound in ``memo``; None when unbounded or overflowing."""
    best: int | None = None
    for rhs in rhss:
        total = 0
        for symbol in rhs:
            if isinstance(symbol, Lit):
                total += len(symbol.text)
            elif isinstance(symbol, CharSet):
                total += 1
            else:
                sub = memo[symbol]
                if sub is None:
                    return None
                total += sub
        if total > _MAX_TRACKED_LEN:
            return None
        if best is None or total > best:
            best = total
    # a production-less nonterminal derives nothing; 0 keeps the
    # bound valid (it can't contribute any string at all)
    return 0 if best is None else best


# -- pruned-automaton reachability ------------------------------------------

#: (dfa, closure) → (min accepting distance | None, max accepting path
#: length | None-if-cyclic-or-unreachable).  Keys hold strong references
#: so ids can't be recycled; bounded by clearing wholesale.
_PRUNED_MEMO: dict[tuple[int, CharSet], tuple] = {}
_PRUNED_MEMO_CAP = 4096


def _pruned_profile(
    dfa: DFA, closure: CharSet
) -> tuple[int | None, int | None, DFA]:
    """Distances over the closure-pruned automaton.

    Returns ``(min_accept_dist, max_accept_dist, dfa)`` where distances
    are over edges whose label overlaps ``closure``; ``min`` is None when
    no accepting state is reachable, ``max`` is None when the pruned live
    subgraph has a cycle (accepting path lengths unbounded).
    """
    key = (id(dfa), closure)
    cached = _PRUNED_MEMO.get(key)
    if cached is not None and cached[2] is dfa:
        return cached
    # forward BFS over pruned edges: shortest distances
    dist: dict[int, int] = {dfa.start: 0}
    queue = deque([dfa.start])
    pruned_edges: dict[int, list[int]] = {}
    while queue:
        state = queue.popleft()
        outs = pruned_edges.setdefault(state, [])
        for label, dst in dfa.transitions.get(state, ()):
            if closure.overlaps(label):
                outs.append(dst)
                if dst not in dist:
                    dist[dst] = dist[state] + 1
                    queue.append(dst)
    reachable_accepts = [s for s in dfa.accepts if s in dist]
    if not reachable_accepts:
        result = (None, None, dfa)
    else:
        min_dist = min(dist[s] for s in reachable_accepts)
        # backward reachability: states that can still reach an accept
        incoming: dict[int, set[int]] = {}
        for src, dsts in pruned_edges.items():
            for dst in dsts:
                incoming.setdefault(dst, set()).add(src)
        live = set(reachable_accepts)
        queue = deque(live)
        while queue:
            state = queue.popleft()
            for src in incoming.get(state, ()):
                if src not in live and src in dist:
                    live.add(src)
                    queue.append(src)
        # longest accepting path, None if the live subgraph is cyclic
        max_dist = _longest_path(dfa.start, pruned_edges, live, set(dfa.accepts))
        result = (min_dist, max_dist, dfa)
    if len(_PRUNED_MEMO) >= _PRUNED_MEMO_CAP:
        _PRUNED_MEMO.clear()
    _PRUNED_MEMO[key] = result
    return result


def _longest_path(
    start: int,
    edges: dict[int, list[int]],
    live: set[int],
    accepts: set[int],
) -> int | None:
    """Longest start→accept path inside ``live``, or None on a cycle."""
    if start not in live:
        return None
    # iterative DFS (see _max_length): post-order longest distances,
    # None as soon as a live edge closes a cycle
    memo: dict[int, int | None] = {}
    on_path = {start}
    stack = [(start, iter(edges.get(start, ())))]
    while stack:
        state, pending = stack[-1]
        for dst in pending:
            if dst not in live or dst in memo:
                continue
            if dst in on_path:
                return None
            on_path.add(dst)
            stack.append((dst, iter(edges.get(dst, ()))))
            break
        else:
            stack.pop()
            on_path.discard(state)
            best = 0 if state in accepts else None
            for dst in edges.get(state, ()):
                if dst not in live:
                    continue
                sub = memo[dst]
                if sub is not None and (best is None or sub + 1 > best):
                    best = sub + 1
            memo[state] = best
    return memo[start]


def prefilter_decides_empty(
    grammar: Grammar, root: Nonterminal, dfa: DFA
) -> bool:
    """True only when the abstraction *proves* the intersection empty.

    A ``False`` answer means "don't know" — the caller must run the
    exact product construction.  Never inspects more than the charset
    closure and length bounds, so a ``True`` here is always confirmed
    by the exact check (the cross-check property test enforces this).
    """
    if not ENABLED:
        return False
    with PERF.timer("prefilter"), TIMELINE.phase("prefilter"):
        abstraction = abstraction_of(grammar, root)
        min_dist, max_dist, _ = _pruned_profile(dfa, abstraction.closure)
        if min_dist is None:
            # no accepting state reachable over the closure alphabet
            return True
        if abstraction.max_len is not None and min_dist > abstraction.max_len:
            # every accepted closure-string is longer than anything X makes
            return True
        if max_dist is not None and max_dist < abstraction.min_len:
            # every accepted closure-string is shorter than anything X makes
            return True
    return False
