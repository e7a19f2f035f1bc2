"""Retained reference implementations of the optimized kernels.

The hot kernels — :mod:`repro.lang.charset`, the Earley recognizer in
:mod:`repro.lang.earley`, the FST-image construction in
:mod:`repro.lang.image`, the CFG ∩ DFA product in
:mod:`repro.lang.intersect`, the subset construction and minimization
in :mod:`repro.lang.fsa` — were rewritten for speed (hash-consed
bitset charsets, integer-indexed charts, lazy triple materialization,
one alphabet refinement per automaton).  This module keeps the
original, obviously-correct formulations *verbatim in spirit*:
interval-walk set algebra, the textbook item-set recognizer, the eager
full-product image and intersection, and per-subset alphabet
refinement.  They are deliberately slow and deliberately simple.

``tests/lang/test_kernel_equivalence.py`` drives randomized inputs
through both implementations and asserts extensional equality — the
optimized kernels must agree with these on every query.  Nothing in the
analysis imports this module; it exists only as the executable
specification the property tests check against.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.lang.charset import MAX_CODEPOINT, CharSet
from repro.lang.grammar import Lit, Nonterminal

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


def partition_charsets(sets: Sequence[CharSet]) -> list[CharSet]:
    """:func:`ref_partition` over :class:`CharSet` values: every input
    set is a union of some of the returned disjoint, nonempty classes
    (the alphabet refinement of :func:`ref_determinize` and
    :func:`ref_minimize`)."""
    boundaries: set[int] = set()
    for s in sets:
        for lo, hi in s.intervals:
            boundaries.add(lo)
            boundaries.add(hi + 1)
    cuts = sorted(boundaries)
    classes = []
    for lo, next_lo in zip(cuts, cuts[1:]):
        piece = CharSet([(lo, next_lo - 1)])
        if any(piece.overlaps(s) for s in sets):
            classes.append(piece)
    return classes


# ---------------------------------------------------------------------------
# the original subset construction and Moore minimization
# ---------------------------------------------------------------------------


def ref_determinize(nfa):
    """Subset construction refining the alphabet per subset: the classes
    of each subset's out-edge labels in ascending codepoint order, each
    class's target the ε-closure of every state an overlapping edge
    reaches, and parallel edges merged at the end."""
    from collections import deque

    from repro.lang.fsa import DFA

    dfa = DFA()
    start = nfa.epsilon_closure([nfa.start])
    state_ids = {start: dfa.new_state()}
    dfa.start = state_ids[start]
    if start & nfa.accepts:
        dfa.accepts.add(dfa.start)
    queue = deque([start])
    while queue:
        subset = queue.popleft()
        src_id = state_ids[subset]
        out_edges = [
            (label, dst)
            for state in subset
            for label, dst in nfa.transitions.get(state, ())
        ]
        if not out_edges:
            continue
        for cls in partition_charsets([label for label, _ in out_edges]):
            targets = {dst for label, dst in out_edges if cls.overlaps(label)}
            target = nfa.epsilon_closure(targets)
            if target not in state_ids:
                state_ids[target] = dfa.new_state()
                if target & nfa.accepts:
                    dfa.accepts.add(state_ids[target])
                queue.append(target)
            dfa.add_edge(src_id, cls, state_ids[target])
    dfa._merge_parallel_edges()
    return dfa


def ref_minimize(dfa):
    """Moore's partition refinement over the live states, each state's
    signature its block and the blocks it reaches on every class of the
    refined alphabet."""
    from repro.lang.fsa import DFA

    live = dfa.live_states()
    if dfa.start not in live:
        empty = DFA()
        empty.start = empty.new_state()
        return empty
    states = sorted(live)
    labels = [
        label
        for s in states
        for label, dst in dfa.transitions.get(s, ())
        if dst in live
    ]
    classes = partition_charsets(labels) if labels else []
    dest_table = {}
    for s in states:
        edges = [
            (label, dst) for label, dst in dfa.transitions.get(s, ()) if dst in live
        ]
        dest_table[s] = [
            next((dst for label, dst in edges if cls.overlaps(label)), None)
            for cls in classes
        ]
    partition = {s: (s in dfa.accepts) for s in states}
    while True:
        blocks = {}
        new_partition = {}
        for s in states:
            key = (
                partition[s],
                tuple(None if d is None else partition[d] for d in dest_table[s]),
            )
            new_partition[s] = blocks.setdefault(key, len(blocks))
        if len(blocks) == len(set(partition.values())):
            partition = new_partition
            break
        partition = new_partition
    result = DFA()
    result.num_states = len(set(partition.values()))
    result.start = partition[dfa.start]
    result.accepts = {partition[s] for s in dfa.accepts if s in live}
    added = set()
    for s in states:
        for label, dst in dfa.transitions.get(s, ()):
            if dst not in live:
                continue
            edge = (partition[s], label, partition[dst])
            if edge not in added:
                added.add(edge)
                result.add_edge(*edge)
    result._merge_parallel_edges()
    return result


def dfa_shape(dfa) -> tuple:
    """Everything that identifies a DFA down to its numbering: the start,
    the accepts and every state's edge list in order."""
    return (
        dfa.num_states,
        dfa.start,
        sorted(dfa.accepts),
        [(src, list(edges)) for src, edges in dfa.transitions.items()],
    )


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
# the pair fixpoint, solved naively
# ---------------------------------------------------------------------------


def _round_robin_pairs(rules, states, pairs, sym_pairs) -> None:
    """Fill ``pairs`` (a ``defaultdict(set)``) with the least solution of
    the pair equations of the normalized ``rules``: sweep every rule in
    order until a whole sweep adds nothing.  ``sym_pairs`` gives the
    pairs of any symbol, reading ``pairs`` for nonterminals."""
    from collections import defaultdict

    def eval_rhs(rhs) -> set[tuple[int, int]]:
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


# ---------------------------------------------------------------------------
# the set-based pair kernel
# ---------------------------------------------------------------------------


class RefPairTable:
    """The pair kernel before its relations became bit rows: a
    ``set[(i, j)]`` per nonterminal, a worklist fixpoint that re-joins
    whole sets pair by pair, and a top-down prepass over single
    triples.  ``term_pairs(symbol)`` is the terminal step (see
    :func:`_dfa_term_pairs` and :func:`_fst_term_pairs`)."""

    def __init__(self, grammar, states, term_pairs) -> None:
        from collections import defaultdict

        self.grammar = grammar
        self.states = states
        self.term_pairs = term_pairs
        self.pairs = defaultdict(set)
        self._starts: dict = {}

    def sym_pairs(self, symbol) -> set[tuple[int, int]]:
        if isinstance(symbol, Nonterminal):
            return self.pairs[symbol]
        return self.term_pairs(symbol)

    def by_start(self, symbol) -> dict[int, list[int]]:
        key = id(symbol)
        index = self._starts.get(key)
        if index is None:
            index = {}
            for i, j in self.sym_pairs(symbol):
                index.setdefault(i, []).append(j)
            self._starts[key] = index
        return index

    def solve(self) -> int:
        from collections import defaultdict

        rules = self.grammar.productions
        parents = defaultdict(list)
        for lhs, rhss in rules.items():
            for rhs in rhss:
                for symbol in rhs:
                    if isinstance(symbol, Nonterminal):
                        parents[symbol].append(lhs)
        sym_pairs = self.sym_pairs

        def eval_rhs(rhs) -> set[tuple[int, int]]:
            if not rhs:
                return {(i, i) for i in self.states}
            if len(rhs) == 1:
                return set(sym_pairs(rhs[0]))
            by_start: dict[int, list[int]] = {}
            for j, k in sym_pairs(rhs[1]):
                by_start.setdefault(j, []).append(k)
            return {
                (i, k) for i, j in sym_pairs(rhs[0]) for k in by_start.get(j, ())
            }

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

    def reachable_triples(self, root, start, ends, crossings=None) -> set:
        """Kept triples ``(X, i, j)``; ``crossings`` collects terminal
        crossings as ``(id(t), i, j) → t``."""
        pairs = self.pairs
        members = set()
        stack = []
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
                    if isinstance(symbol, Nonterminal):
                        if (i, j) in pairs[symbol] and (symbol, i, j) not in members:
                            members.add((symbol, i, j))
                            stack.append((symbol, i, j))
                    elif crossings is not None:
                        crossings[(id(symbol), i, j)] = symbol
                    continue
                first, second = rhs
                second_pairs = self.sym_pairs(second)
                for mid in self.by_start(first).get(i, ()):
                    if (mid, j) not in second_pairs:
                        continue
                    for symbol, p, q in ((first, i, mid), (second, mid, j)):
                        if isinstance(symbol, Nonterminal):
                            if (symbol, p, q) not in members:
                                members.add((symbol, p, q))
                                stack.append((symbol, p, q))
                        elif crossings is not None:
                            crossings[(id(symbol), p, q)] = symbol
        return members


def _fst_term_pairs(fst):
    """The FST terminal step: the pairs of the transducer's input side
    each terminal crosses, per symbol (literal runs raise
    :class:`~repro.lang.fst.FSTExplosion` as the analysis's do)."""
    from repro.lang.image import _charset_steps, _lit_runs

    term_cache: dict[int, set[tuple[int, int]]] = {}

    def term_pairs(symbol) -> set[tuple[int, int]]:
        key = id(symbol)
        if key not in term_cache:
            found = set()
            for p in range(fst.num_states):
                if isinstance(symbol, Lit):
                    ends = _lit_runs(fst, symbol.text, p)
                else:
                    ends = _charset_steps(fst, symbol, p)
                found.update((p, q) for q in ends)
            term_cache[key] = found
        return term_cache[key]

    return term_pairs


def ref_summary(fst, grammar, root, ends, members, crossings):
    """``(charset closure, labels)`` of a planned image, read off the
    set-based prepass's kept triples and ``(id, p, q)`` crossings."""
    from repro.lang.grammar import closure_of
    from repro.lang.image import _charset_steps, _lit_runs

    texts: set[str] = set()
    charsets: set[CharSet] = set()
    for (_, p, q), symbol in crossings.items():
        if isinstance(symbol, Lit):
            texts.update(_lit_runs(fst, symbol.text, p).get(q, ()))
            continue
        for sequence in _charset_steps(fst, symbol, p).get(q, ()):
            for item in sequence:
                if isinstance(item, Lit):
                    texts.add(item.text)
                else:
                    charsets.add(item)
    for q in ends:
        texts.add(fst.final_output.get(q, ""))
    labels = set(grammar.labels.get(root, ()))
    for lhs, _, _ in members:
        labels.update(grammar.labels.get(lhs, ()))
    return closure_of(texts, charsets), frozenset(labels)


def pairs_of_rows(rows) -> dict:
    """``nonterminal → set[(i, j)]`` of a row map, as a
    ``defaultdict(set)`` that holds no empty set."""
    from collections import defaultdict

    pairs = defaultdict(set)
    for nt, row in rows.items():
        for i, mask in row.items():
            for j in range(mask.bit_length()):
                if mask >> j & 1:
                    pairs[nt].add((i, j))
    return pairs


def triples_of_rows(rows) -> set:
    """The ``(X, i, j)`` triples of a row map."""
    return {(nt, i, j) for nt, found in pairs_of_rows(rows).items() for i, j in found}


def crossings_of_rows(crossings) -> dict:
    """Row-form crossings ``id → (t, rows)`` as ``(id, i, j) → t``."""
    return {
        (key, i, j): symbol
        for key, (symbol, rows) in crossings.items()
        for i, mask in rows.items()
        for j in range(mask.bit_length())
        if mask >> j & 1
    }


# ---------------------------------------------------------------------------
# the original eager FST-image construction
# ---------------------------------------------------------------------------


def ref_fst_image(grammar, root, fst):
    """The original (pre-optimization) image construction: naive pair
    fixpoint over every nonterminal, full triple materialization, then a
    trim.  Returns ``(result, start)``.

    The eager build creates some kept triples and terminal wrappers
    earlier than a reachable-only one, on first reference from a body of
    a triple the trim drops.  So the result is built a second time with
    only the triples the first trim kept as left-hand sides: the creation
    order, and hence the names, the production order and the rule order,
    that the analysis's reachable-only construction promises.
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
    _round_robin_pairs(rules, states, pairs, sym_pairs)

    def build(kept):
        """Materialize the triples of ``kept`` (every triple if None)
        in rule order, then ascending pairs; trim."""
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
            for p, q in sorted(pairs[lhs]):
                if kept is not None and (lhs, p, q) not in kept:
                    continue
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
                    for p2, mid in sorted(sym_pairs(first)):
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
        return result.trim(start), start, triple

    eager, _, triple = build(None)
    result, start, _ = build(
        {key for key, nt in triple.items() if nt in eager.productions}
    )
    return result, start


def _dfa_term_pairs(dfa, states):
    """The DFA terminal step: the pairs each terminal crosses, per symbol."""
    from repro.lang.grammar import Lit

    term_cache: dict[int, set[tuple[int, int]]] = {}

    def term_pairs(symbol) -> set[tuple[int, int]]:
        key = id(symbol)
        if key not in term_cache:
            found = set()
            for i in states:
                if isinstance(symbol, Lit):
                    j = dfa.run_string(i, symbol.text)
                    if j is not None:
                        found.add((i, j))
                    continue
                for label, j in dfa.transitions.get(i, ()):
                    if symbol.overlaps(label):
                        found.add((i, j))
            term_cache[key] = found
        return term_cache[key]

    return term_pairs


def ref_intersect_pairs(grammar, dfa) -> dict:
    """The pair sets of every nonterminal of ``grammar.normalized()``
    against ``dfa``, from a naive fixpoint that shares no code with the
    analysis's pair kernel: it sweeps every rule until nothing changes,
    and its terminal step runs the DFA directly."""
    from collections import defaultdict

    from repro.lang.grammar import Nonterminal as NT

    states = sorted(dfa.live_states())
    term_pairs = _dfa_term_pairs(dfa, states)
    pairs: dict = defaultdict(set)

    def sym_pairs(symbol):
        return pairs[symbol] if isinstance(symbol, NT) else term_pairs(symbol)

    _round_robin_pairs(grammar.normalized().productions, states, pairs, sym_pairs)
    return pairs


def ref_intersect(grammar, root, dfa, pairs=None):
    """The original (pre-optimization) intersection: a triple for every
    (nonterminal, realizable pair) of the normalized scope, then a full
    trim.  Returns ``(result, start)``.

    The pairs come from :func:`ref_intersect_pairs` unless ``pairs`` is
    given.  Triples are visited in rule order, then ascending pairs, and
    a two-symbol body's splits in ascending ``mid``: the kernel's order,
    which depends only on the relation, never on how a fixpoint
    inserted it.
    """
    from repro.lang.charset import CharSet
    from repro.lang.grammar import Grammar, Lit
    from repro.lang.grammar import Nonterminal as NT

    normalized = grammar.normalized()
    if pairs is None:
        pairs = ref_intersect_pairs(grammar, dfa)
    term_pairs = _dfa_term_pairs(dfa, sorted(dfa.live_states()))

    def sym_pairs(symbol):
        return pairs[symbol] if isinstance(symbol, NT) else term_pairs(symbol)

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
            return get_triple(symbol, i, j) if (i, j) in pairs[symbol] else None
        if isinstance(symbol, Lit):
            return symbol if dfa.run_string(i, symbol.text) == j else None
        refined = CharSet.empty()
        for label, dst in dfa.transitions.get(i, ()):
            if dst == j:
                refined = refined.union(symbol.intersect(label))
        return refined if refined else None

    for lhs, rhss in normalized.productions.items():
        for i, j in sorted(pairs[lhs]):
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
                    for i2, mid in sorted(sym_pairs(first)):
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
        if (dfa.start, qf) in pairs[root]:
            result.add(start, (get_triple(root, dfa.start, qf),))
    return result.trim(start), start


def ref_generates(grammar, root, text: str) -> bool:
    """Reference membership: does ``root`` derive ``text``?

    A bottom-up span table (CYK-style, but directly over our symbol
    kinds) with a per-span fixpoint so cyclic/unit/epsilon rules are
    handled exactly.  The analysis decides membership with
    :func:`repro.lang.earley.char_membership`; this slow, independent
    checker is the tests' oracle for it.
    """
    n = len(text)
    reach = [nt for nt in grammar.reachable(root) if nt in grammar.productions]
    table: set[tuple[Nonterminal, int, int]] = set()

    for length in range(n + 1):
        spans = [(i, i + length) for i in range(n - length + 1)]
        changed = True
        while changed:
            changed = False
            for i, j in spans:
                for nt in reach:
                    if (nt, i, j) in table:
                        continue
                    if any(
                        _seq_derives(text, table, rhs, 0, i, j)
                        for rhs in grammar.productions.get(nt, ())
                    ):
                        table.add((nt, i, j))
                        changed = True
    return (root, 0, n) in table


def _seq_derives(
    text: str, table: set, rhs: tuple, k: int, i: int, j: int
) -> bool:
    """Does ``rhs[k:]`` derive ``text[i:j]``, given the span ``table``?"""
    if k == len(rhs):
        return i == j
    symbol = rhs[k]
    if isinstance(symbol, Lit):
        split = i + len(symbol.text)
        return (
            split <= j
            and text[i:split] == symbol.text
            and _seq_derives(text, table, rhs, k + 1, split, j)
        )
    if isinstance(symbol, CharSet):
        return (
            i < j
            and text[i] in symbol
            and _seq_derives(text, table, rhs, k + 1, i + 1, j)
        )
    return any(
        (symbol, i, split) in table
        and _seq_derives(text, table, rhs, k + 1, split, j)
        for split in range(i, j + 1)
    )
