"""Image of a CFG under a finite-state transducer, with taint propagation.

The string-taint analysis converts an extended production like
``x → escape_quotes(y)`` into ordinary productions by computing the image
of the grammar rooted at ``y`` under the FST modeling ``escape_quotes``
(paper §3.1.2).  The construction is the pair kernel of the CFG–FSA
intersection (:mod:`repro.lang.pairs`) run over the FST's input side:
nonterminals become triples ``X_{pq}`` deriving *the outputs of* FST
runs from state ``p`` to ``q`` over strings of ``X``, and ``TAINTIF``
keeps the taint labels attached — the image of a tainted subgrammar is
tainted.

Because FSTs may be nondeterministic, a literal terminal can map to a
*set* of outputs per state pair; these become alternation productions.

A construction runs in two steps.  The **plan** (:func:`plan_image`) is
the kernel's pair fixpoint and reachable-triple prepass: it decides
which triples the image has without creating any of them.  The
**materialization** (:func:`_materialize`) then runs the kernel's
materializer with the FST's output as the terminal rewrite.  A caller
that would only widen an oversized image can stop after the plan and
take a :class:`DeferredImage` instead (DESIGN §5o).
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict

from repro.obs.timeline import TIMELINE
from repro.obs.metrics import PERF

from .charset import CharSet
from .fst import FST, FSTExplosion, map_marker_charset, render_output
from .grammar import Grammar, Lit, Nonterminal, Rhs, Symbol, closure_of
from .pairs import PairTable, Rows, bits, count_pairs, trim_materialized


#: How one generated nonterminal's name derives from the input grammar:
#: ``(input insertion ordinal, template)`` — ``template.format(name)``
#: with the ordinal-th input nonterminal's name, or a literal template
#: when the ordinal is None (terminal wrappers, whose names are
#: input-independent).
NameRecipe = tuple[int | None, str]


class _Entry:
    """One memo entry: the built image, the deferral summary, or both.

    ``size`` is the plan's lower bound on the image's rule count (see
    :attr:`ImagePlan.size`), kept on every entry so a hit makes the same
    deferral decision a miss would.  ``summary`` is ``(charset closure,
    labels)`` of the image, filled only for images some caller deferred.
    """

    __slots__ = ("fst", "grammar", "start", "recipes", "size", "summary")

    def __init__(self, fst, grammar, start, recipes, size, summary) -> None:
        self.fst = fst
        self.grammar: Grammar | None = grammar
        self.start: Nonterminal | None = start
        self.recipes: dict[Nonterminal, NameRecipe] | None = recipes
        self.size: int = size
        self.summary: tuple[CharSet, frozenset[str]] | None = summary


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
    may come from a page whose name counters differ; each built entry
    therefore carries the :data:`NameRecipe` per cached nonterminal, and
    :func:`fst_image` re-derives names from the hitting input grammar —
    handing back exactly what an uncached construction would have built
    (same names, same production order, fresh nonterminal objects).  An
    entry of a deferred image holds only its summary until some caller
    builds it.
    """

    def __init__(self, maxsize: int = 512) -> None:
        self.maxsize = maxsize
        self._entries: OrderedDict[tuple, _Entry] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, fst: FST, fingerprint: str) -> _Entry | None:
        """The raw cached entry (not a copy) — callers must not mutate
        its grammar."""
        entry = self._entries.get((id(fst), fingerprint))
        if entry is None or entry.fst is not fst:
            return None
        self._entries.move_to_end((id(fst), fingerprint))
        return entry

    def put(self, fingerprint: str, entry: _Entry) -> None:
        self._entries[(id(entry.fst), fingerprint)] = entry
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
    grammar: Grammar,
    root: Nonterminal,
    fst: FST,
    defer_above: int | None = None,
) -> tuple[Grammar, Nonterminal] | DeferredImage:
    """Grammar for ``{ output : input ∈ L(grammar, root) }`` under ``fst``.

    Returns ``(result, start)``, trimmed, with labels propagated to
    every triple of a labeled nonterminal (the FST analogue of
    Theorem 3.1).  Memoized in :data:`IMAGE_CACHE` by
    ``(FST identity, input fingerprint)``; only successful constructions
    are cached (an :class:`FSTExplosion` re-raises every time and the
    caller's widening fallback handles it).

    With ``defer_above``, an image whose plan bounds its rule count
    above that many rules (:attr:`ImagePlan.size`) is not built: the
    caller gets a :class:`DeferredImage` instead.  The decision depends
    only on the input, never on the memo's state.
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
    defer = entry is not None and defer_above is not None and entry.size > defer_above
    if entry is not None and (defer or entry.grammar is not None):
        PERF.incr("image.cache.hits")
        TIMELINE.annotate("cache", "hit")
        if defer:
            if entry.summary is None:
                entry.summary = _built_summary(entry)
            return DeferredImage(entry, grammar, root, fingerprint)
        return _replay(entry, grammar)
    PERF.incr("image.cache.misses")
    TIMELINE.annotate("cache", "miss")
    with PERF.timer("image.plan"), TIMELINE.phase("image.plan"):
        plan = plan_image(grammar, root, fst, summarize=defer_above is not None)
        if defer_above is not None and plan.size > defer_above:
            entry = _Entry(fst, None, None, None, plan.size, _summarize(plan))
            IMAGE_CACHE.put(fingerprint, entry)
            return DeferredImage(entry, grammar, root, fingerprint, plan)
    return _build(plan, fingerprint, entry)


def _replay(entry: _Entry, grammar: Grammar) -> tuple[Grammar, Nonterminal]:
    """A hit: the memoized construction replayed onto ``grammar``'s names."""
    # one recipe per cached nonterminal — the replay count is the volume
    # of construction work the memo turned into rebinds
    PERF.incr("image.cache.replays", len(entry.recipes))
    with PERF.timer("image.rebind"), TIMELINE.phase("image.rebind"):
        return _rebind_image(entry.grammar, entry.start, entry.recipes, grammar)


def _build(
    plan: ImagePlan, fingerprint: str, entry: _Entry | None
) -> tuple[Grammar, Nonterminal]:
    """Materialize ``plan`` and memoize the result (keeping the summary
    of an ``entry`` that was deferred before)."""
    with PERF.timer("image.construct"), TIMELINE.phase("image.construct"):
        result, start, recipes = _materialize(plan)
    summary = entry.summary if entry is not None else None
    IMAGE_CACHE.put(
        fingerprint, _Entry(plan.fst, result, start, recipes, plan.size, summary)
    )
    # hand the first caller a copy too: the cached original must never
    # be reachable from mutating callers
    return result.structural_copy(), start


class DeferredImage:
    """A transducer image that was planned but not built.

    It carries what a consumer that widens the image needs — ``size``,
    the plan's lower bound on the image's rule count; ``closure``, the
    exact charset closure of the image's language; ``labels``, exactly
    the labels the built image would carry — and :meth:`build` produces
    the image itself on demand: from the saved plan, else by replaying a
    built memo entry, else by planning again.  :meth:`release` drops
    the plan (the largest part) and keeps only what re-planning needs.
    """

    __slots__ = ("size", "closure", "labels", "_entry", "_grammar", "_root",
                 "_fingerprint", "_plan")

    def __init__(
        self,
        entry: _Entry,
        grammar: Grammar,
        root: Nonterminal,
        fingerprint: str,
        plan: ImagePlan | None = None,
    ) -> None:
        self.size = entry.size
        self.closure, self.labels = entry.summary
        self._entry = entry
        self._grammar = grammar
        self._root = root
        self._fingerprint = fingerprint
        self._plan = plan

    def build(self) -> tuple[Grammar, Nonterminal]:
        """Exactly what :func:`fst_image` without deferral returns."""
        fst = self._entry.fst
        entry = IMAGE_CACHE.get(fst, self._fingerprint) or self._entry
        if entry.grammar is not None:
            return _replay(entry, self._grammar)
        plan = self._plan
        self._plan = None
        if plan is None:
            with PERF.timer("image.plan"), TIMELINE.phase("image.plan"):
                plan = plan_image(self._grammar, self._root, fst)
        return _build(plan, self._fingerprint, entry)

    def release(self) -> None:
        self._plan = None


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


class ImagePlan(PairTable):
    """The pair fixpoint and reachable-triple prepass of one image.

    ``rows`` maps each normalized nonterminal to the ``(p, q)`` state
    pairs of the FST's input side its strings can cross; ``reachable``
    holds the triples ``(X, p, q)`` the image keeps, as rows too, and
    ``ends`` the accepting states the root reaches from the start state.
    The literal runs and terminal rows are kept too, so materializing
    later repeats none of the plan's work.
    """

    def __init__(self, grammar: Grammar, root: Nonterminal, fst: FST) -> None:
        super().__init__(grammar.normalized(root), range(fst.num_states))
        self.source = grammar
        self.root = root
        self.fst = fst
        # Plan-local memo, freed with the plan: its size is bounded by
        # (distinct literals in the input subgrammar) × states, so no
        # global bound is needed — but its high-water mark is reported
        # through a perf gauge so a pathological grammar shows up in
        # --profile instead of as silent memory growth.
        self.lit_cache: dict[tuple[str, int], dict[int, set[str]]] = {}
        self.ends: list[int] = []
        self.reachable: dict[Nonterminal, Rows] = {}
        self.crossings: dict[int, tuple[Symbol, Rows]] | None = None

    @property
    def size(self) -> int:
        """A lower bound on the built image's rule count as a page
        operand (its alias rule included): every kept triple keeps at
        least one rule — the fixpoint made it productive — and so do
        the start and the alias.  An empty image is its alias rule."""
        triples = count_pairs(self.reachable)
        return triples + 2 if triples else 1

    def lit_runs(self, text: str, p: int) -> dict[int, set[str]]:
        key = (text, p)
        runs = self.lit_cache.get(key)
        if runs is None:
            runs = self.lit_cache[key] = _lit_runs(self.fst, text, p)
        return runs

    def term_rows(self, symbol: Symbol) -> Rows:
        row: Rows = {}
        for p in self.states:
            if isinstance(symbol, Lit):
                ends = self.lit_runs(symbol.text, p)
            else:
                ends = [t.dst for t in self.fst.transitions.get(p, ())
                        if symbol.overlaps(t.label)]
            mask = 0
            for q in ends:
                mask |= 1 << q
            if mask:
                row[p] = mask
        return row


def plan_image(
    grammar: Grammar, root: Nonterminal, fst: FST, summarize: bool = False
) -> ImagePlan:
    """Plan the image of ``L(grammar, root)`` under ``fst``: which state
    pairs each nonterminal crosses, and which triples survive.  With
    ``summarize``, the prepass also records the terminal crossings
    :func:`_summarize` reads (``plan.crossings``)."""
    plan = ImagePlan(grammar, root, fst)
    with PERF.timer("image.fixpoint"):
        PERF.incr("image.fixpoint_iterations", plan.solve())
    PERF.gauge("image.lit_cache.max_size", len(plan.lit_cache))
    PERF.gauge("image.term_cache.max_size", len(plan.term_cache))
    # Only triples reachable from an accepting start pair survive the
    # final trim, so the prepass decides them before anything is built.
    with PERF.timer("image.prepass"):
        root_row = plan.rows[root].get(fst.start, 0)
        plan.ends = [q for q in bits(root_row) if fst.is_accepting(q)]
        plan.crossings = {} if summarize else None
        plan.reachable = plan.reachable_triples(
            root, fst.start, sum(1 << q for q in plan.ends), plan.crossings
        )
    PERF.gauge("image.reachable_triples", count_pairs(plan.reachable))
    return plan


def _summarize(plan: ImagePlan) -> tuple[CharSet, frozenset[str]]:
    """``(charset closure, labels)`` of the image a summarizing ``plan``
    describes, without building it: the characters of every terminal
    crossing a kept production body makes (plus the final flushes), and
    the labels of the base nonterminal of every kept triple.  Equal to
    ``charset_closure`` and the label union of the materialized image,
    because a body is kept exactly when both of its sides cross a
    realizable pair."""
    with PERF.timer("image.summary"):
        fst = plan.fst
        node_labels = plan.grammar.labels
        texts: set[str] = set()
        charsets: set[CharSet] = set()
        for symbol, rows in plan.crossings.values():
            for p, mask in rows.items():
                if isinstance(symbol, Lit):
                    runs = plan.lit_runs(symbol.text, p)
                    for q in bits(mask):
                        texts.update(runs.get(q, ()))
                    continue
                steps = _charset_steps(fst, symbol, p)
                for q in bits(mask):
                    for sequence in steps.get(q, ()):
                        for item in sequence:
                            if isinstance(item, Lit):
                                texts.add(item.text)
                            else:
                                charsets.add(item)
        for q in plan.ends:
            texts.add(fst.final_output.get(q, ""))
        labels: set[str] = set(node_labels.get(plan.root, ()))
        for lhs in plan.reachable:
            labels.update(node_labels.get(lhs, ()))
        return closure_of(texts, charsets), frozenset(labels)


def _built_summary(entry: _Entry) -> tuple[CharSet, frozenset[str]]:
    """The summary of a memoized built image, read off the image."""
    grammar = entry.grammar
    labels: set[str] = set()
    for found in grammar.labels.values():
        labels |= found
    return grammar.charset_closure(entry.start), frozenset(labels)


def _materialize(
    plan: ImagePlan,
) -> tuple[Grammar, Nonterminal, dict[Nonterminal, NameRecipe]]:
    """Build the trimmed image grammar ``plan`` describes, with the name
    recipe of every kept nonterminal (see :class:`ImageCache`)."""
    root, fst, normalized = plan.root, plan.fst, plan.grammar
    # name provenance for the cache: which input nonterminal each
    # generated name string derives from (chain variables inherit the
    # lhs they were split from)
    input_ordinal = {nt: i for i, nt in enumerate(plan.source.productions)}
    chain_source: dict[Nonterminal, Nonterminal] = getattr(
        normalized, "_chain_source", {}
    )
    recipes: dict[Nonterminal, NameRecipe] = {}
    result = Grammar()
    term_triple: dict[tuple[int, int, int], Symbol | None] = {}

    def mint(nt: Nonterminal, p: int, q: int) -> Nonterminal:
        fresh = result.fresh(f"{nt.name}/{p},{q}")
        source = chain_source.get(nt)
        base, suffix = (nt, f"/{p},{q}") if source is None else (
            source, f"~/{p},{q}"
        )
        ordinal = input_ordinal.get(base)
        recipes[fresh] = (
            (ordinal, "{}" + suffix) if ordinal is not None
            else (None, fresh.name)
        )
        return fresh

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
            outputs = plan.lit_runs(symbol.text, p).get(q)
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

    with PERF.timer("image.materialize"):
        get_triple = plan.materialize(result, plan.reachable, mint, term_symbol)
        start = result.fresh(f"{root.name}»")
        root_ordinal = input_ordinal.get(root)
        recipes[start] = (
            (root_ordinal, "{}»") if root_ordinal is not None else (None, start.name)
        )
        result.start = start
        for label in normalized.labels.get(root, ()):
            result.add_label(start, label)
        for q in plan.ends:
            flush = fst.final_output.get(q, "")
            body: Rhs = (get_triple(root, fst.start, q),)
            if flush:
                body = body + (Lit(flush),)
            result.add(start, body)
    with PERF.timer("image.trim"):
        trimmed = trim_materialized(result, start)
    kept_recipes = {nt: recipes[nt] for nt in trimmed.productions}
    return trimmed, start, kept_recipes


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
