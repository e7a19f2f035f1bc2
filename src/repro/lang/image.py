"""Image of a CFG under a finite-state transducer, with taint propagation.

The string-taint analysis converts an extended production like
``x → escape_quotes(y)`` into ordinary productions by computing the image
of the grammar rooted at ``y`` under the FST modeling ``escape_quotes``
(paper §3.1.2).  The construction mirrors the CFG–FSA intersection
(Figure 7): nonterminals become triples ``X_{pq}`` deriving *the outputs
of* FST runs from state ``p`` to ``q`` over strings of ``X``, and
``TAINTIF`` keeps the taint labels attached — the image of a tainted
subgrammar is tainted.

Because FSTs may be nondeterministic, a literal terminal can map to a
*set* of outputs per state pair; these become alternation productions.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict

from repro.obs.timeline import TIMELINE
from repro.obs.metrics import PERF

from .charset import CharSet
from .fst import FST, FSTExplosion, map_marker_charset, render_output
from .grammar import Grammar, Lit, Nonterminal, Rhs, Symbol


#: How one generated nonterminal's name derives from the input grammar:
#: ``(input insertion ordinal, template)`` — ``template.format(name)``
#: with the ordinal-th input nonterminal's name, or a literal template
#: when the ordinal is None (terminal wrappers, whose names are
#: input-independent).
NameRecipe = tuple[int | None, str]


class ImageCache:
    """Content-addressed memo over transducer images (bounded LRU).

    Keyed by ``(id(fst), input-subgrammar shape fingerprint)``: the
    image of a grammar under an FST is a pure function of the two, and
    sanitizer FSTs (``addslashes``, ``str_replace`` models, …) are
    applied to the same include-derived subgrammars over and over across
    a project's pages.  Entries keep a strong reference to the FST, so a
    live entry's ``id(fst)`` can never be recycled for a different
    transducer.

    The *shape* fingerprint abstracts nonterminal names away, so a hit
    may come from a page whose name counters differ; each entry
    therefore carries the :data:`NameRecipe` per cached nonterminal, and
    :func:`fst_image` re-derives names from the hitting input grammar —
    handing back exactly what an uncached construction would have built
    (same names, same production order, fresh nonterminal objects).
    """

    def __init__(self, maxsize: int = 512) -> None:
        self.maxsize = maxsize
        self._entries: OrderedDict[tuple, tuple] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(
        self, fst: FST, fingerprint: str
    ) -> tuple[Grammar, Nonterminal, dict[Nonterminal, NameRecipe]] | None:
        """The raw cached entry (not a copy) — callers must not mutate."""
        entry = self._entries.get((id(fst), fingerprint))
        if entry is None or entry[0] is not fst:
            return None
        self._entries.move_to_end((id(fst), fingerprint))
        _, grammar, start, recipes = entry
        return grammar, start, recipes

    def put(
        self,
        fst: FST,
        fingerprint: str,
        grammar: Grammar,
        start: Nonterminal,
        recipes: dict[Nonterminal, NameRecipe],
    ) -> None:
        self._entries[(id(fst), fingerprint)] = (fst, grammar, start, recipes)
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            PERF.incr("image.cache.evictions")
        PERF.gauge("image.cache.size", len(self._entries))

    def clear(self) -> None:
        self._entries.clear()


#: Process-wide image memo (one per worker in parallel runs).
IMAGE_CACHE = ImageCache()

#: Sentinel distinguishing "not computed" from a cached None result.
_TERM_MISS = object()


def _lit_runs(
    fst: FST, text: str, start: int, limit: int = 64
) -> dict[int, set[str]]:
    """All FST runs over ``text`` from ``start``: end state → output set."""
    frontier: dict[int, set[str]] = {start: {""}}
    for char in text:
        next_frontier: dict[int, set[str]] = defaultdict(set)
        total = 0
        for state, outputs in frontier.items():
            for transition in fst.transitions.get(state, ()):
                if char not in transition.label:
                    continue
                emitted = render_output(transition.output, char)
                for out in outputs:
                    next_frontier[transition.dst].add(out + emitted)
                    total += 1
                    if total > limit:
                        raise FSTExplosion(
                            f"literal {text!r} has >{limit} transducer images"
                        )
        frontier = dict(next_frontier)
        if not frontier:
            break
    return frontier


def _charset_steps(
    fst: FST, charset: CharSet, start: int
) -> dict[int, list[tuple[Symbol, ...]]]:
    """Single-char images: end state → list of output symbol sequences."""
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


def fst_image(
    grammar: Grammar, root: Nonterminal, fst: FST
) -> tuple[Grammar, Nonterminal]:
    """Grammar for ``{ output : input ∈ L(grammar, root) }`` under ``fst``.

    Returns ``(result, start)``, trimmed, with labels propagated to
    every triple of a labeled nonterminal (the FST analogue of
    Theorem 3.1).  Memoized in :data:`IMAGE_CACHE` by
    ``(FST identity, input fingerprint)``; only successful constructions
    are cached (an :class:`FSTExplosion` re-raises every time and the
    caller's widening fallback handles it).
    """
    with PERF.latency("image.lookup_seconds"):
        with PERF.timer("image.fingerprint"):
            # order-sensitive, name-insensitive: equal shapes guarantee
            # the construction runs the same operation sequence, and the
            # name recipes recover this input's names on a hit
            position = next(
                (i for i, nt in enumerate(grammar.productions) if nt is root),
                -1,
            )
            fingerprint = f"{grammar.shape_fingerprint()}:{position}"
        entry = IMAGE_CACHE.get(fst, fingerprint)
    if entry is not None:
        PERF.incr("image.cache.hits")
        TIMELINE.annotate("cache", "hit")
        cached_grammar, cached_start, recipes = entry
        # a hit replays the memoized construction onto this grammar's
        # names, one recipe per cached nonterminal — the replay count is
        # the volume of construction work the memo turned into rebinds
        PERF.incr("image.cache.replays", len(recipes))
        with PERF.timer("image.rebind"), TIMELINE.phase("image.rebind"):
            return _rebind_image(cached_grammar, cached_start, recipes, grammar)
    PERF.incr("image.cache.misses")
    TIMELINE.annotate("cache", "miss")
    with PERF.timer("image.construct"), TIMELINE.phase("image.construct"):
        result, start, recipes = _fst_image_uncached(grammar, root, fst)
    IMAGE_CACHE.put(fst, fingerprint, result, start, recipes)
    # hand the first caller a copy too: the cached original must never
    # be reachable from mutating callers
    return result.structural_copy(), start


def _rebind_image(
    cached: Grammar,
    cached_start: Nonterminal,
    recipes: dict[Nonterminal, "NameRecipe"],
    grammar: Grammar,
) -> tuple[Grammar, Nonterminal]:
    """Re-create a cached image against ``grammar``'s nonterminal names.

    Mints fresh :class:`Nonterminal` objects in the cached grammar's
    insertion order (= the creation order of the surviving nonterminals
    in the original construction), with each name re-derived from the
    hitting input via its :data:`NameRecipe` — so the result is exactly
    what :func:`_fst_image_uncached` would have produced on this input:
    identical names, identical production and label structure, and the
    same relative creation order of every surviving nonterminal.
    """
    inputs = list(grammar.productions)
    mapping: dict[Nonterminal, Nonterminal] = {}
    for nt in cached.productions:
        ordinal, template = recipes[nt]
        name = template.format(inputs[ordinal].name) if ordinal is not None else template
        mapping[nt] = Nonterminal(name)
    result = Grammar()
    result.productions = {
        mapping[nt]: [tuple(mapping.get(s, s) for s in rhs) for rhs in rules]
        for nt, rules in cached.productions.items()
    }
    result._nrules = cached._nrules
    result.labels = {
        mapping[nt]: set(labels) for nt, labels in cached.labels.items()
    }
    start = mapping[cached_start]
    result.start = start
    return result, start


def _fst_image_uncached(
    grammar: Grammar, root: Nonterminal, fst: FST
) -> tuple[Grammar, Nonterminal, dict[Nonterminal, NameRecipe]]:
    normalized = grammar.normalized(root)
    states = list(range(fst.num_states))
    # name provenance for the cache: which input nonterminal each
    # generated name string derives from (chain variables inherit the
    # lhs they were split from)
    input_ordinal = {nt: i for i, nt in enumerate(grammar.productions)}
    chain_source: dict[Nonterminal, Nonterminal] = getattr(
        normalized, "_chain_source", {}
    )
    recipes: dict[Nonterminal, NameRecipe] = {}

    # ---- pair fixpoint (which (p, q) are realizable per nonterminal) ----
    pairs: dict[Nonterminal, set[tuple[int, int]]] = defaultdict(set)
    # Call-local memos, freed when this construction returns: their size
    # is bounded by (distinct literals in the input subgrammar) × states,
    # so no global bound is needed — but their high-water marks are
    # reported through the perf gauges below so a pathological grammar
    # shows up in --profile instead of as silent memory growth.
    lit_cache: dict[tuple[int, str, int], dict[int, set[str]]] = {}

    def lit_runs(text: str, p: int) -> dict[int, set[str]]:
        key = (id(fst), text, p)
        if key not in lit_cache:
            lit_cache[key] = _lit_runs(fst, text, p)
        return lit_cache[key]

    def term_pairs(symbol: Symbol) -> set[tuple[int, int]]:
        found = set()
        if isinstance(symbol, Lit):
            for p in states:
                for q in lit_runs(symbol.text, p):
                    found.add((p, q))
        else:
            for p in states:
                for q in _charset_steps(fst, symbol, p):
                    found.add((p, q))
        return found

    term_cache: dict[int, set[tuple[int, int]]] = {}

    def sym_pairs(symbol: Symbol) -> set[tuple[int, int]]:
        if isinstance(symbol, Nonterminal):
            return pairs[symbol]
        key = id(symbol)
        if key not in term_cache:
            term_cache[key] = term_pairs(symbol)
        return term_cache[key]

    rules = normalized.productions
    # memoized on the (frozen) normalized grammar, shared across the
    # transducer images taken of the same scope
    occurrences = normalized._memo_get(("occ_lhs",))
    if occurrences is None:
        occurrences = defaultdict(list)
        for lhs, rhss in rules.items():
            for rhs in rhss:
                for symbol in rhs:
                    if isinstance(symbol, Nonterminal):
                        occurrences[symbol].append(lhs)
        normalized._memo_set(("occ_lhs",), occurrences)

    # id(symbol) -> [pair-count at build time, start -> [ends]]; rebuilt
    # only when the symbol's pair set has grown since the last build, so
    # converged symbols stop paying the re-index cost every visit.
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
            return {(p, p) for p in states}
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
    with PERF.timer("image.fixpoint"):
        while worklist:
            iterations += 1
            lhs = worklist.pop()
            queued.discard(lhs)
            added = False
            target = pairs[lhs]
            for rhs in rules.get(lhs, ()):
                before = len(target)
                target |= eval_rhs(rhs)
                if len(target) != before:
                    added = True
            if added:
                for parent in occurrences.get(lhs, ()):
                    if parent not in queued:
                        queued.add(parent)
                        worklist.append(parent)
    PERF.incr("image.fixpoint_iterations", iterations)
    PERF.gauge("image.lit_cache.max_size", len(lit_cache))
    PERF.gauge("image.term_cache.max_size", len(term_cache))

    # ---- reachable-triple prepass ---------------------------------------
    # Only triples reachable from an accepting start pair survive the
    # final trim, so materializing the rest is pure waste (the pair
    # fixpoint makes every triple productive, hence trim keeps exactly
    # the reachable set).  Walk the triple graph top-down *before*
    # creating anything: a production of X_{pq} references Y_{p,mid} /
    # B_{mid,q} only when both sides cross realizable pairs, which is
    # decidable from the fixpoint alone.  The materialization loop below
    # then runs in its original order, skipping non-members — identical
    # per-production order and identical relative creation order of
    # everything the eager construction would have kept.
    starts_index: dict[int, dict[int, list[int]]] = {}

    def by_first(symbol: Symbol) -> dict[int, list[int]]:
        key = id(symbol)
        index = starts_index.get(key)
        if index is None:
            index = {}
            for p2, mid in sym_pairs(symbol):
                index.setdefault(p2, []).append(mid)
            starts_index[key] = index
        return index

    prepass_timer = PERF.timer("image.prepass")
    prepass_timer.__enter__()
    reachable_triples: set[tuple[Nonterminal, int, int]] = set()
    stack: list[tuple[Nonterminal, int, int]] = []
    for q in states:
        if fst.is_accepting(q) and (fst.start, q) in pairs[root]:
            entry = (root, fst.start, q)
            if entry not in reachable_triples:
                reachable_triples.add(entry)
                stack.append(entry)
    while stack:
        lhs, p, q = stack.pop()
        for rhs in rules.get(lhs, ()):
            if not rhs:
                continue
            if len(rhs) == 1:
                symbol = rhs[0]
                if isinstance(symbol, Nonterminal) and (p, q) in pairs[symbol]:
                    succ = (symbol, p, q)
                    if succ not in reachable_triples:
                        reachable_triples.add(succ)
                        stack.append(succ)
                continue
            first, second = rhs
            second_pairs = sym_pairs(second)
            first_is_nt = isinstance(first, Nonterminal)
            second_is_nt = isinstance(second, Nonterminal)
            for mid in by_first(first).get(p, ()):
                if (mid, q) not in second_pairs:
                    continue
                if first_is_nt:
                    succ = (first, p, mid)
                    if succ not in reachable_triples:
                        reachable_triples.add(succ)
                        stack.append(succ)
                if second_is_nt:
                    succ = (second, mid, q)
                    if succ not in reachable_triples:
                        reachable_triples.add(succ)
                        stack.append(succ)
    prepass_timer.__exit__(None, None, None)
    PERF.gauge("image.reachable_triples", len(reachable_triples))

    # ---- materialize the output grammar ---------------------------------
    materialize_timer = PERF.timer("image.materialize")
    materialize_timer.__enter__()
    result = Grammar()
    triple: dict[tuple[Nonterminal, int, int], Nonterminal] = {}
    term_triple: dict[tuple[int, int, int], Symbol | None] = {}

    def get_triple(nt: Nonterminal, p: int, q: int) -> Nonterminal:
        key = (nt, p, q)
        if key not in triple:
            fresh = result.fresh(f"{nt.name}/{p},{q}")
            triple[key] = fresh
            source = chain_source.get(nt)
            base, suffix = (nt, f"/{p},{q}") if source is None else (
                source, f"~/{p},{q}"
            )
            ordinal = input_ordinal.get(base)
            recipes[fresh] = (
                (ordinal, "{}" + suffix) if ordinal is not None
                else (None, fresh.name)
            )
            # inlined add_label: ``fresh`` is already in productions and
            # no memo has been taken on the result grammar yet
            labels = normalized.labels.get(nt)
            if labels:
                result.labels[fresh] = set(labels)
        return triple[key]

    def term_symbol(symbol: Symbol, p: int, q: int) -> Symbol | None:
        """Output-side symbol for a terminal crossing (p, q), or None.

        Every outcome is cached, including "no crossing" (None) and the
        plain-symbol cases — a hot str_replace image asks about the same
        (literal, p, q) key once per referencing production.
        """
        key = (id(symbol), p, q)
        cached = term_triple.get(key, _TERM_MISS)
        if cached is not _TERM_MISS:
            return cached
        out_symbol: Symbol | None
        if isinstance(symbol, Lit):
            outputs = lit_runs(symbol.text, p).get(q)
            if not outputs:
                out_symbol = None
            elif len(outputs) == 1:
                out_symbol = Lit(next(iter(outputs)))
            else:
                wrapper = result.fresh(f"lit/{p},{q}")
                recipes[wrapper] = (None, wrapper.name)
                for out in sorted(outputs):
                    wrapper_rhs = (Lit(out),) if out else ()
                    result.add(wrapper, wrapper_rhs)
                out_symbol = wrapper
        else:
            sequences = _charset_steps(fst, symbol, p).get(q)
            if not sequences:
                out_symbol = None
            elif len(sequences) == 1 and len(sequences[0]) == 1:
                out_symbol = sequences[0][0]
            else:
                wrapper = result.fresh(f"cls/{p},{q}")
                recipes[wrapper] = (None, wrapper.name)
                for seq in sequences:
                    result.add(wrapper, seq)
                out_symbol = wrapper
        term_triple[key] = out_symbol
        return out_symbol

    def rhs_symbol(symbol: Symbol, p: int, q: int) -> Symbol | None:
        if type(symbol) is Nonterminal:
            if (p, q) in pairs[symbol]:
                return get_triple(symbol, p, q)
            return None
        return term_symbol(symbol, p, q)

    for lhs, rhss in rules.items():
        # Pre-dispatch each rhs once per lhs instead of once per state
        # pair: the (kind, symbols, start-index) tuples carry no side
        # effects, so hoisting them leaves the creation order of every
        # triple and wrapper unchanged.
        prepared: list[tuple] | None = None
        for p, q in pairs[lhs]:
            if (lhs, p, q) not in reachable_triples:
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
                        prepared.append((2, first, second, by_first(first)))
            lhs_triple = get_triple(lhs, p, q)
            bodies: list[Rhs] = []
            for kind, first, second, index in prepared:
                if kind == 2:
                    for mid in index.get(p, ()):
                        left = rhs_symbol(first, p, mid)
                        right = rhs_symbol(second, mid, q)
                        if left is not None and right is not None:
                            bodies.append((left, right))
                elif kind == 1:
                    restricted = rhs_symbol(first, p, q)
                    if restricted is not None:
                        bodies.append((restricted,))
                elif p == q:
                    bodies.append(())
            result._bulk_add(lhs_triple, bodies)

    start = result.fresh(f"{root.name}»")
    root_ordinal = input_ordinal.get(root)
    recipes[start] = (
        (root_ordinal, "{}»") if root_ordinal is not None else (None, start.name)
    )
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
    materialize_timer.__exit__(None, None, None)
    with PERF.timer("image.trim"):
        trimmed = _image_trim(result, start)
    kept_recipes = {nt: recipes[nt] for nt in trimmed.productions}
    return trimmed, start, kept_recipes


def _image_trim(result: Grammar, start: Nonterminal) -> Grammar:
    """``result.trim(start)`` specialized to freshly materialized images
    (and to the reachable-only products of :mod:`repro.lang.intersect`).

    The reachable-triple prepass guarantees every materialized triple is
    productive and reachable from ``start``, and ``fresh()`` inserts
    nonterminals into the production dict at creation, so the insertion
    order already equals the uid order ``trim`` would sort into.  What a
    full trim actually removes here is only (a) orphan triples — created
    on first reference from a production body that was then dropped
    because its other side had no realizable crossing — which have empty
    rule lists, and (b) orphan multi-output terminal wrappers, which
    have rules but are referenced by no surviving body.  Both are
    recognized with one linear pass instead of the reachable/productive
    fixpoints.
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


def regular_image(charset: CharSet, fst: FST) -> tuple[Grammar, Nonterminal]:
    """Image of ``charset*`` under ``fst`` — the widening target used when a
    string operation occurs in a grammar cycle (paper §3.1.2).

    ``charset*`` is expressed as the one-nonterminal cyclic grammar
    ``W → ε | C W`` and run through :func:`fst_image`.
    """
    grammar = Grammar()
    w = grammar.fresh("Σ*")
    grammar.start = w
    grammar.add(w, ())
    grammar.add(w, (charset, w))
    return fst_image(grammar, w, fst)
