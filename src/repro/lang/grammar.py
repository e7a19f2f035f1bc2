"""Context-free grammars with taint-labeled nonterminals.

The string-taint analysis (paper §3.1) represents the set of query
strings a program can generate as a CFG whose *nonterminals mirror the
program's dataflow* (one per SSA-style assignment, Figure 5).  Untrusted
sources are marked by labeling their nonterminals ``DIRECT`` or
``INDIRECT``; Theorem 3.1 guarantees the labels survive intersection and
transducer images.

Symbols
-------
A production right-hand side is a tuple of:

* :class:`Lit` — a literal string chunk (possibly multi-character; the
  constant query fragments of Definition 2.1),
* a :class:`~repro.lang.charset.CharSet` — one character from a set
  (compact encoding of e.g. ``[0-9]``), and
* :class:`Nonterminal` values.

Keeping literals multi-character keeps real query grammars small; the
intersection/image algorithms handle them natively.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import heapq
import itertools
from collections import deque
from typing import Iterable, Iterator, Sequence

from repro.obs.metrics import PERF

from .charset import CharSet

#: Taint labels (paper §2.2).
DIRECT = "direct"
INDIRECT = "indirect"


class Lit:
    """A literal terminal string (may be several characters, never None).

    Hand-rolled (not a dataclass) with the hash precomputed at
    construction: Lit hashing dominates rhs dedup and sentential-form
    dedup in hot loops, and strings already cache their own hash, so the
    per-instance copy makes ``hash(lit)`` a slot load.
    """

    __slots__ = ("text", "_hash")

    def __init__(self, text: str) -> None:
        self.text = text
        self._hash = hash(text)

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        return isinstance(other, Lit) and other.text == self.text

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Lit, (self.text,))

    def __repr__(self) -> str:
        return f"Lit({self.text!r})"


class Nonterminal:
    """An interned grammar variable.  Identity-based: two nonterminals are
    equal only if they are the same object, so fresh variables are cheap."""

    __slots__ = ("name", "uid")
    _counter = itertools.count()

    def __init__(self, name: str) -> None:
        self.name = name
        self.uid = next(Nonterminal._counter)

    def __repr__(self) -> str:
        return self.name

    def __lt__(self, other: "Nonterminal") -> bool:
        return self.uid < other.uid


def reserve_uid() -> int:
    """Take the next uid without creating a nonterminal, so that
    :func:`place_in_slot` can later give nonterminals created much
    afterwards the uid order they would have had if created now."""
    return next(Nonterminal._counter)


def place_in_slot(nts: Sequence[Nonterminal], slot: int) -> None:
    """Renumber ``nts``, in order, into the open interval between the
    reserved uid ``slot`` and the next uid: they then sort after every
    nonterminal created before the reservation and before every
    nonterminal created after it."""
    step = 1 / (len(nts) + 1)
    for i, nt in enumerate(nts, 1):
        nt.uid = slot + i * step


def closure_of(texts: Iterable[str], charsets: Iterable[CharSet]) -> CharSet:
    """Every character of ``texts`` and ``charsets``, as one charset."""
    intervals = [(cp, cp) for cp in map(ord, set("".join(texts)))]
    for charset in charsets:
        intervals.extend(charset.intervals)
    return CharSet(intervals)


Symbol = Lit | CharSet | Nonterminal
Rhs = tuple[Symbol, ...]

#: Pops one :meth:`Grammar.sample_strings` walk or one
#: :meth:`Grammar.shortest_strings` search may take.
_SAMPLE_STEPS = 20000


def gc_paused(func):
    """Run ``func`` with CPython's cyclic collector disabled.

    The grammar kernels allocate hundreds of thousands of short-lived,
    acyclic tuples and rules; every few hundred allocations the collector
    rescans the whole live page grammar for cycles they never form
    (DESIGN.md "Collector pauses").  Reference counting still frees all
    of it.  Only the call that found the collector enabled re-enables it,
    so nested calls, exceptions and concurrent threads never leave it off.
    """

    @functools.wraps(func)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return func(*args, **kwargs)
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            gc.enable()

    return paused


def is_terminal(symbol: Symbol) -> bool:
    return isinstance(symbol, (Lit, CharSet))


class Grammar:
    """A mutable CFG with per-nonterminal taint labels."""

    def __init__(self, start: Nonterminal | None = None) -> None:
        self.start = start
        self.productions: dict[Nonterminal, list[Rhs]] = {}
        self.labels: dict[Nonterminal, set[str]] = {}
        #: provenance side-tables (:mod:`repro.analysis.provenance`).
        #: ``origins`` maps a nonterminal to the *event* that minted it —
        #: an untrusted-source birth, a sanitizer/FST image, a
        #: refinement, a widening — as a plain picklable dict.
        #: ``prov_inputs`` records dataflow edges the productions alone
        #: cannot show: an operation like a transducer image absorbs a
        #: structurally fresh grammar, so its result nonterminal has no
        #: production path back to the operand; the edge lives here.
        #: Both are deliberately excluded from :meth:`canonical_form`
        #: (and hence :meth:`fingerprint`): provenance describes *where
        #: in the program* a grammar came from, which must not perturb
        #: content-addressed caching, and is re-derived per page when a
        #: cached verdict is replayed.
        self.origins: dict[Nonterminal, dict] = {}
        self.prov_inputs: dict[Nonterminal, tuple[Nonterminal, ...]] = {}
        #: mutation counter + derived-value memos.  ``_rev`` ticks on
        #: every ``add``/``add_label``; memo entries carry a validity
        #: stamp (rev, |V|, |R|) so even mutations that bypass the
        #: methods (``productions.setdefault`` from the bridge/absdom
        #: layers) are caught by the size components.
        self._rev = 0
        #: per-lhs dedup cell ``[rule_set, list_len_at_last_sync]``; the
        #: length component detects lists touched behind our back.
        self._dedup: dict[Nonterminal, list] = {}
        self._memo: dict = {}
        #: running rule count.  Sound because every rule-list mutation in
        #: the codebase goes through ``add``/``_bulk_add`` (external
        #: callers only ever ``productions.setdefault(nt, [])`` to force a
        #: nonterminal into existence, which adds no rules) — the
        #: kernel-equivalence property tests cross-check this invariant.
        self._nrules = 0

    # -- construction -----------------------------------------------------

    def fresh(self, name: str) -> Nonterminal:
        nt = Nonterminal(name)
        self.productions.setdefault(nt, [])
        return nt

    def add(self, lhs: Nonterminal, rhs: Sequence[Symbol]) -> None:
        """Add ``lhs -> rhs`` (dedups; drops empty-Lit clutter)."""
        for s in rhs:
            if isinstance(s, Lit) and s.text == "":
                cleaned = tuple(
                    x for x in rhs if not (isinstance(x, Lit) and x.text == "")
                )
                break
        else:
            cleaned = rhs if type(rhs) is tuple else tuple(rhs)
        rules = self.productions.setdefault(lhs, [])
        cached = self._dedup.get(lhs)
        if cached is None or cached[1] != len(rules):
            # first add for this lhs, or the rule list was touched
            # behind our back (structural_copy, direct appends)
            cached = [set(rules), len(rules)]
            self._dedup[lhs] = cached
        rule_set = cached[0]
        if cleaned not in rule_set:
            rules.append(cleaned)
            rule_set.add(cleaned)
            cached[1] = len(rules)
            self._rev += 1
            self._nrules += 1

    def _bulk_add(self, lhs: Nonterminal, rhss: Iterable[Rhs]) -> None:
        """Exactly ``for rhs in rhss: self.add(lhs, rhs)``, amortized.

        The copy-heavy operations (trim, subgrammar, grammar absorption,
        the triple materialization in :mod:`repro.lang.image`) funnel
        hundreds of thousands of already-clean rules through ``add``;
        hoisting the dedup-cell bookkeeping out of the loop roughly
        halves their cost while keeping order and dedup semantics
        identical."""
        rules = self.productions.setdefault(lhs, [])
        cached = self._dedup.get(lhs)
        if cached is None or cached[1] != len(rules):
            cached = [set(rules), len(rules)]
            self._dedup[lhs] = cached
        rule_set = cached[0]
        append = rules.append
        seen_add = rule_set.add
        before = len(rules)
        for rhs in rhss:
            for s in rhs:
                if type(s) is Lit and not s.text:
                    rhs = tuple(
                        x for x in rhs if not (type(x) is Lit and not x.text)
                    )
                    break
            else:
                if type(rhs) is not tuple:
                    rhs = tuple(rhs)
            if rhs not in rule_set:
                seen_add(rhs)
                append(rhs)
        added = len(rules) - before
        if added:
            cached[1] = len(rules)
            self._rev += added
            self._nrules += added

    def replace_rules(self, lhs: Nonterminal, rhss: Iterable[Rhs]) -> None:
        """Make ``rhss`` (deduplicated, in order) ``lhs``'s whole rule
        list; ``lhs`` keeps its place in the production order."""
        self._nrules -= len(self.productions.get(lhs, ()))
        self.productions[lhs] = []
        self._dedup.pop(lhs, None)
        self._rev += 1
        self._bulk_add(lhs, rhss)

    def set_labels(self, nt: Nonterminal, labels: Iterable[str]) -> None:
        """Make ``labels`` exactly ``nt``'s label set."""
        labels = set(labels)
        if labels:
            self.labels[nt] = labels
        else:
            self.labels.pop(nt, None)
        self._rev += 1

    def add_label(self, nt: Nonterminal, label: str) -> None:
        self.labels.setdefault(nt, set()).add(label)
        self.productions.setdefault(nt, [])
        self._rev += 1

    def set_origin(
        self,
        nt: Nonterminal,
        event: dict,
        inputs: Sequence[Nonterminal] = (),
    ) -> None:
        """Record the provenance event that produced ``nt`` (first writer
        wins: a nonterminal is minted by exactly one operation) and the
        operand nonterminals it consumed."""
        self.origins.setdefault(nt, event)
        if inputs:
            self.add_prov_inputs(nt, inputs)

    def add_prov_inputs(
        self, nt: Nonterminal, inputs: Sequence[Nonterminal]
    ) -> None:
        current = self.prov_inputs.get(nt, ())
        fresh = tuple(i for i in inputs if i not in current)
        if fresh:
            self.prov_inputs[nt] = current + fresh

    def copy_labels(self, src: Nonterminal, dst: Nonterminal) -> None:
        """The paper's TAINTIF: dst inherits every label of src."""
        for label in self.labels.get(src, ()):
            self.add_label(dst, label)

    def has_label(self, nt: Nonterminal, label: str | None = None) -> bool:
        if label is None:
            return bool(self.labels.get(nt))
        return label in self.labels.get(nt, ())

    def labeled_nonterminals(self, label: str | None = None) -> list[Nonterminal]:
        return [nt for nt in self.productions if self.has_label(nt, label)]

    # -- structure queries -------------------------------------------------

    def nonterminals(self) -> list[Nonterminal]:
        return list(self.productions)

    def num_productions(self) -> int:
        return self._nrules

    def rhs_nonterminals(self, rhs: Rhs) -> Iterator[Nonterminal]:
        for symbol in rhs:
            if isinstance(symbol, Nonterminal):
                yield symbol

    def _stamp(self) -> tuple[int, int, int]:
        """Validity stamp for derived-value memos (see ``_rev``)."""
        return (self._rev, len(self.productions), self._nrules)

    def _memo_get(self, key):
        entry = self._memo.get(key)
        if entry is not None and entry[0] == self._stamp():
            return entry[1]
        return None

    def _memo_set(self, key, value) -> None:
        if len(self._memo) > 256:
            self._memo.clear()
        self._memo[key] = (self._stamp(), value)

    def reachable(self, root: Nonterminal | None = None) -> set[Nonterminal]:
        root = root or self.start
        if root is None:
            return set()
        cached = self._memo_get(("reach", root))
        if cached is not None:
            return set(cached)
        seen = {root}
        queue = deque([root])
        while queue:
            nt = queue.popleft()
            for rhs in self.productions.get(nt, ()):
                for ref in rhs:
                    if isinstance(ref, Nonterminal) and ref not in seen:
                        seen.add(ref)
                        queue.append(ref)
        self._memo_set(("reach", root), seen)
        return set(seen)

    def productive(self) -> set[Nonterminal]:
        """Nonterminals that derive at least one terminal string.

        Worklist formulation: each rule keeps a count of its still
        unproductive nonterminal references; when a nonterminal becomes
        productive it decrements the counts of the rules waiting on it.
        Linear in the grammar size instead of a quadratic re-scan.
        """
        cached = self._memo_get(("productive",))
        if cached is not None:
            return set(cached)
        productive: set[Nonterminal] = set()
        waiting: dict[Nonterminal, list[tuple[Nonterminal, list]]] = {}
        queue: deque[Nonterminal] = deque()
        for nt, rules in self.productions.items():
            for rhs in rules:
                refs = [s for s in rhs if isinstance(s, Nonterminal)]
                if not refs:
                    if nt not in productive:
                        productive.add(nt)
                        queue.append(nt)
                    continue
                # the pending-count cell is shared by every waiter entry
                cell = [0]
                pending = 0
                for ref in refs:
                    if ref in productive:
                        continue
                    pending += 1
                    waiting.setdefault(ref, []).append((nt, cell))
                cell[0] = pending
                if pending == 0 and nt not in productive:
                    productive.add(nt)
                    queue.append(nt)
        while queue:
            ready = queue.popleft()
            for waiter, cell in waiting.pop(ready, ()):
                cell[0] -= 1
                if cell[0] == 0 and waiter not in productive:
                    productive.add(waiter)
                    queue.append(waiter)
        self._memo_set(("productive",), productive)
        return set(productive)

    def trim(self, root: Nonterminal | None = None) -> "Grammar":
        """Remove unreachable and unproductive nonterminals."""
        root = root or self.start
        productive = self.productive()
        result = Grammar(root)
        if root not in productive:
            if root is not None:
                result.productions[root] = []
                result.copy_labels_from(self, [root])
            return result
        keep = {
            nt
            for nt in self.reachable(root)
            if nt in productive
        }
        # sorted by uid (= creation order): keeps the production-dict
        # insertion order deterministic across runs and processes, which
        # downstream ordering (maximal_labeled, canonical fingerprints,
        # report rendering) depends on.  Identity-based set iteration
        # would leak memory addresses into report ordering.
        for nt in sorted(keep):
            kept_rules = []
            for rhs in self.productions.get(nt, ()):
                for s in rhs:
                    if isinstance(s, Nonterminal) and s not in keep:
                        break
                else:
                    kept_rules.append(rhs)
            result._bulk_add(nt, kept_rules)
        result.copy_labels_from(self, keep)
        return result

    def copy_labels_from(self, other: "Grammar", nts: Iterable[Nonterminal]) -> None:
        for nt in nts:
            for label in other.labels.get(nt, ()):
                self.add_label(nt, label)

    def subgrammar(self, root: Nonterminal) -> "Grammar":
        """The grammar restricted to symbols reachable from ``root``."""
        result = Grammar(root)
        keep = self.reachable(root)
        for nt in sorted(keep):  # uid order: deterministic across processes
            result._bulk_add(nt, self.productions.get(nt, ()))
        result.copy_labels_from(self, keep)
        return result

    def structural_copy(self) -> "Grammar":
        """A shallow structural copy: fresh production/label containers,
        shared :class:`Nonterminal` objects and rhs tuples.  Mutating the
        copy (``add``, ``add_label``) never touches the original — this is
        what the content-addressed caches hand out so cache entries stay
        immutable."""
        result = Grammar(self.start)
        result.productions = {nt: list(rules) for nt, rules in self.productions.items()}
        result.labels = {nt: set(labels) for nt, labels in self.labels.items()}
        result.origins = dict(self.origins)
        result.prov_inputs = dict(self.prov_inputs)
        result._nrules = self._nrules
        return result

    # -- content addressing -------------------------------------------------

    def canonical_order(self, root: Nonterminal) -> list[Nonterminal]:
        """Nonterminals reachable from ``root`` in canonical (BFS over
        production insertion order) order.  Position in this list is a
        nonterminal's *canonical index* — stable across processes and
        independent of names, uids, and memory addresses."""
        cached = self._memo_get(("order", root))
        if cached is not None:
            return list(cached)
        order = [root]
        seen = {root}
        queue = deque([root])
        while queue:
            nt = queue.popleft()
            for rhs in self.productions.get(nt, ()):
                for ref in rhs:
                    if isinstance(ref, Nonterminal) and ref not in seen:
                        seen.add(ref)
                        order.append(ref)
                        queue.append(ref)
        self._memo_set(("order", root), order)
        return list(order)

    def canonical_form(self, root: Nonterminal, order: list[Nonterminal] | None = None) -> str:
        """A name-independent serialization of the grammar rooted at
        ``root``: nonterminals are renamed to their canonical index, and
        productions are listed in insertion order with taint labels.

        Two grammars have equal canonical forms iff they are isomorphic
        as *labeled, production-ordered* grammars — same language, same
        taint labeling, and the same deterministic behaviour under every
        downstream algorithm that walks productions in order.  That is
        the invariant the content-addressed verdict/image caches rely on
        (see DESIGN.md "Content-addressed caching").
        """
        if order is None:
            order = self.canonical_order(root)
        index = {nt: i for i, nt in enumerate(order)}
        pieces: list[str] = []
        for i, nt in enumerate(order):
            labels = ",".join(sorted(self.labels.get(nt, ())))
            pieces.append(f"N{i}[{labels}]:")
            for rhs in self.productions.get(nt, ()):
                pieces.append(
                    "->" + " ".join(_canonical_symbol(s, index) for s in rhs)
                )
        return "\n".join(pieces)

    def fingerprint(self, root: Nonterminal, order: list[Nonterminal] | None = None) -> str:
        """SHA-256 content address of :meth:`canonical_form`."""
        if order is None:
            cached = self._memo_get(("fp", root))
            if cached is not None:
                return cached
        form = self.canonical_form(root, order=order)
        digest = hashlib.sha256(form.encode("utf-8")).hexdigest()
        if order is None:
            self._memo_set(("fp", root), digest)
        return digest

    def shape_fingerprint(self) -> str:
        """SHA-256 of the grammar *exactly as algorithms consume it* —
        production-dict insertion order, per-rule order, and labels —
        with nonterminal names abstracted to insertion ordinals.

        Sits between :meth:`fingerprint` (fully canonical: pins neither
        names nor insertion order) and raw identity.  Two grammars with
        equal shape fingerprints drive any deterministic construction
        that iterates ``productions`` in insertion order — the
        transducer image in particular — through the *same* sequence of
        operations; only the name strings threaded into generated
        nonterminals differ, and those the image cache re-derives on a
        hit from its name recipes.  The weaker canonical fingerprint
        remains the right key for the verdict cache, which re-binds
        names on replay by canonical index."""
        cached = self._memo_get(("shape_fp",))
        if cached is not None:
            return cached
        ordinal = {nt: i for i, nt in enumerate(self.productions)}
        pieces: list[str] = []
        for nt, i in ordinal.items():
            labels = ",".join(sorted(self.labels.get(nt, ())))
            pieces.append(f"{i}[{labels}]:")
            for rhs in self.productions.get(nt, ()):
                pieces.append(
                    "->"
                    + " ".join(
                        f"N{ordinal.get(s, -1)}" if isinstance(s, Nonterminal)
                        else _canonical_symbol(s, ordinal)
                        for s in rhs
                    )
                )
        digest = hashlib.sha256("\n".join(pieces).encode("utf-8")).hexdigest()
        self._memo_set(("shape_fp",), digest)
        return digest

    def cyclic_nonterminals(self) -> set[Nonterminal]:
        """Nonterminals on a reference cycle (Tarjan SCC, iterative)."""
        index: dict[Nonterminal, int] = {}
        lowlink: dict[Nonterminal, int] = {}
        on_stack: set[Nonterminal] = set()
        stack: list[Nonterminal] = []
        counter = itertools.count()
        cyclic: set[Nonterminal] = set()

        successors = {
            nt: [ref for rhs in rules for ref in self.rhs_nonterminals(rhs)]
            for nt, rules in self.productions.items()
        }

        for root in self.productions:
            if root in index:
                continue
            work = [(root, 0)]
            while work:
                node, child_idx = work.pop()
                if child_idx == 0:
                    index[node] = lowlink[node] = next(counter)
                    stack.append(node)
                    on_stack.add(node)
                recurse = False
                children = successors.get(node, [])
                for i in range(child_idx, len(children)):
                    child = children[i]
                    if child not in index:
                        work.append((node, i + 1))
                        work.append((child, 0))
                        recurse = True
                        break
                    if child in on_stack:
                        lowlink[node] = min(lowlink[node], index[child])
                if recurse:
                    continue
                if lowlink[node] == index[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member is node:
                            break
                    if len(component) > 1:
                        cyclic.update(component)
                    else:
                        member = component[0]
                        if any(child is member for child in successors.get(member, [])):
                            cyclic.add(member)
                if work:
                    parent = work[-1][0]
                    lowlink[parent] = min(lowlink[parent], lowlink[node])
        return cyclic

    # -- language queries --------------------------------------------------

    def charset_closure(self, root: Nonterminal) -> CharSet:
        """Union of all characters any string of ``root`` may contain."""
        cached = self._memo_get(("closure", root))
        if cached is not None:
            return cached
        # distinct symbols first, one normalization at the end: the
        # union is the same hash-consed set, without one interval list
        # per literal occurrence
        texts: set[str] = set()
        charsets: set[CharSet] = set()
        for nt in self.reachable(root):
            for rhs in self.productions.get(nt, ()):
                for symbol in rhs:
                    if isinstance(symbol, Lit):
                        texts.add(symbol.text)
                    elif isinstance(symbol, CharSet):
                        charsets.add(symbol)
        chars = closure_of(texts, charsets)
        self._memo_set(("closure", root), chars)
        return chars

    def sample_strings(
        self,
        root: Nonterminal,
        limit: int = 20,
        max_len: int = 200,
    ) -> list[str]:
        """Up to ``limit`` distinct strings of L(root), in the order a
        breadth-first walk over sentential forms completes them.

        Strings come out by derivation depth, not by length: a deep but
        short string can follow a shallow long one, and a walk cut by
        the step budget or the 40-symbol form cap can miss short
        strings altogether (:meth:`shortest_strings` has neither flaw).
        Charset symbols contribute their sample character (plus ``'``
        and ``-`` if present, since quotes and comment dashes are what
        the analyses care about).
        """
        memo_key = ("samples", root, limit, max_len)
        cached = self._memo_get(memo_key)
        if cached is not None:
            return list(cached)
        results: list[str] = []
        seen_forms: set[tuple] = set()
        seen_add = seen_forms.add
        # Sentential forms hold literals as plain ``str`` (not Lit):
        # CPython caches str hashes in C, so deduplicating a form tuple
        # skips one Python-level __hash__ call per literal.  The Lit ↔
        # str bijection (equal texts ⇔ equal objects in a form slot)
        # keeps dedup decisions, queue order, and results identical to
        # the Lit-based walk.  Production rhss are converted once each.
        conv_cache: dict[int, tuple] = {}
        # each queue entry carries a scan hint: every symbol left of the
        # previous expansion point is a literal, so the search for the
        # first non-literal can resume there instead of rescanning
        queue: deque[tuple[tuple, int]] = deque([((root,), 0)])
        pop = queue.popleft
        push = queue.append
        productions = self.productions
        steps = 0
        seen_count = 0
        cut = False
        while queue and len(results) < limit and steps < _SAMPLE_STEPS:
            steps += 1
            form, scan = pop()
            # find first nonterminal / charset
            idx = None
            n = len(form)
            while scan < n:
                if type(form[scan]) is not str:
                    idx = scan
                    break
                scan += 1
            if idx is None:
                text = "".join(form)
                if len(text) <= max_len and text not in results:
                    results.append(text)
                continue
            if seen_count + 1 >= _SAMPLE_STEPS:
                # Step budget cut: every step pops exactly one entry, so
                # the entry pushed N-th after the root is popped at step
                # N + 1, and one pushed now would be popped after the
                # last step.  Only the completed forms already queued
                # can still contribute, so stop building new ones.
                cut = True
                continue
            symbol = form[idx]
            if type(symbol) is CharSet:
                choices = {symbol.sample_char()}
                if "'" in symbol:
                    choices.add("'")
                if "-" in symbol:
                    choices.add("-")
                # sorted: set iteration over strings is hash-seed
                # dependent, and samples must not vary across processes
                for char in sorted(choices):
                    expanded = form[:idx] + (char,) + form[idx + 1 :]
                    # single-hash membership: add() and compare sizes
                    # instead of a `not in` probe followed by add()
                    seen_add(expanded)
                    if len(seen_forms) != seen_count:
                        seen_count += 1
                        push((expanded, idx))
                continue
            prefix = form[:idx]
            suffix = form[idx + 1 :]
            for rhs in productions.get(symbol, ()):
                conv = conv_cache.get(id(rhs))
                if conv is None:
                    conv = tuple(
                        s.text if type(s) is Lit else s for s in rhs
                    )
                    conv_cache[id(rhs)] = conv
                expanded = prefix + conv + suffix
                if len(expanded) <= 40:
                    seen_add(expanded)
                    if len(seen_forms) != seen_count:
                        seen_count += 1
                        push((expanded, idx))
        if cut:
            PERF.incr("samples.budget_cuts")
        self._memo_set(memo_key, results)
        return list(results)

    def shortest_strings(self, root: Nonterminal, limit: int) -> list[str]:
        """Up to ``limit`` distinct strings of L(root), shortest first.

        Best-first search over leftmost sentential forms, in the spirit
        of Knuth's shortest derivations (IPL 1977).  A form is a
        terminal prefix plus the symbols still to expand; its priority
        is the prefix length plus the :meth:`_min_lengths` of those
        symbols, i.e. the length of its shortest completion, and ties
        pop in insertion order.  Expanding the leftmost symbol never
        lowers the priority, so completed strings pop in non-decreasing
        length.  Charset symbols take the same choices as
        :meth:`sample_strings`; rules with an empty-language symbol are
        never expanded, so an empty language costs no search at all.

        Forms with more than 40 symbols left to expand are dropped:
        without that cap nullable recursion (``A → A B | ε``) spawns
        equal-priority forms forever.  A search that takes
        ``_SAMPLE_STEPS`` pops without ``limit`` strings stops there
        and counts ``samples.budget_cuts``, like the breadth-first walk.
        """
        memo_key = ("shortest", root, limit)
        cached = self._memo_get(memo_key)
        if cached is not None:
            return list(cached)
        lengths = self._min_lengths(root)
        results: list[str] = []
        # per nonterminal: its productive rules as (symbols with
        # literals as plain str, shortest-completion cost)
        expansions: dict[Nonterminal, list[tuple[tuple, int]]] = {}
        choices: dict[CharSet, tuple[str, ...]] = {}
        productions = self.productions
        heap: list[tuple[int, int, str, tuple]] = (
            [(lengths[root], 0, "", (root,))] if root in lengths else []
        )
        seen: set[tuple[str, tuple]] = {("", (root,))}
        counter = 1
        pops = 0
        while heap and len(results) < limit:
            if pops == _SAMPLE_STEPS:
                PERF.incr("samples.budget_cuts")
                break
            pops += 1
            priority, _, prefix, rest = heapq.heappop(heap)
            if not rest:
                # (prefix, ()) is deduplicated like every form
                results.append(prefix)
                continue
            symbol = rest[0]
            tail = rest[1:]
            if type(symbol) is CharSet:
                picks = choices.get(symbol)
                if picks is None:
                    picks = {symbol.sample_char()}
                    if "'" in symbol:
                        picks.add("'")
                    if "-" in symbol:
                        picks.add("-")
                    # sorted: set order over strings depends on the hash seed
                    picks = choices[symbol] = tuple(sorted(picks))
                children = [(priority, prefix + char, tail) for char in picks]
            else:
                rules = expansions.get(symbol)
                if rules is None:
                    rules = expansions[symbol] = _cost_rules(
                        productions.get(symbol, ()), lengths
                    )
                base = priority - lengths[symbol]
                children = [(base + cost, prefix, body + tail) for body, cost in rules]
            for child_priority, child_prefix, child_rest in children:
                # move leading literals into the prefix: the form's key
                # then names its terminal text once, however derived
                i = 0
                n = len(child_rest)
                while i < n and type(child_rest[i]) is str:
                    i += 1
                if i:
                    child_prefix += "".join(child_rest[:i])
                    child_rest = child_rest[i:]
                if n - i > 40:
                    continue
                key = (child_prefix, child_rest)
                if key in seen:
                    continue
                seen.add(key)
                heapq.heappush(
                    heap, (child_priority, counter, child_prefix, child_rest)
                )
                counter += 1
        self._memo_set(memo_key, results)
        return list(results)

    def enumerate_finite(
        self,
        root: Nonterminal,
        max_strings: int = 64,
        max_charset: int = 16,
        max_len: int = 200,
    ) -> list[str] | None:
        """All strings of ``L(root)`` if the language is finite and small.

        Returns None when the language is (or may be) infinite, when a
        charset symbol is too wide to enumerate, or when the bounds are
        exceeded.  Used by the token bridge to handle whitelist values
        (``ASC``/``DESC`` …) exactly.
        """
        scope = self.subgrammar(root).trim(root)
        if scope.cyclic_nonterminals():
            return None
        results: set[str] = set()
        forms: deque[Rhs] = deque([(root,)])
        steps = 0
        while forms:
            steps += 1
            if steps > 10_000:
                return None
            form = forms.popleft()
            idx = next(
                (i for i, s in enumerate(form) if not isinstance(s, Lit)), None
            )
            if idx is None:
                text = "".join(s.text for s in form)
                if len(text) > max_len:
                    return None
                results.add(text)
                if len(results) > max_strings:
                    return None
                continue
            symbol = form[idx]
            if isinstance(symbol, CharSet):
                if symbol.size() > max_charset:
                    return None
                for char in symbol.chars(limit=max_charset):
                    forms.append(form[:idx] + (Lit(char),) + form[idx + 1 :])
                continue
            for rhs in scope.productions.get(symbol, ()):
                forms.append(form[:idx] + rhs + form[idx + 1 :])
        return sorted(results)

    def affix_summary(
        self, root: Nonterminal
    ) -> tuple[str, str, int] | None:
        """``(forced_prefix, forced_suffix, min_length)`` of L(root).

        Sound under-approximations: every string of the language starts
        with ``forced_prefix``, ends with ``forced_suffix``, and is at
        least ``min_length`` characters long.  Returns ``None`` when the
        language is provably empty.  Cycles and charset alternatives
        simply truncate the forced affix (to the empty string in the
        worst case), so the summary is always a valid *necessary*
        condition for membership — the include resolver uses it to prune
        candidate paths before the exact :meth:`generates` test.
        """
        cached = self._memo_get(("affix", root))
        if cached is not None:
            return cached[0]
        min_len = self._min_lengths(root).get(root)
        if min_len is None:
            self._memo_set(("affix", root), (None,))
            return None
        prefix = self._forced_affix(root, reverse=False)
        suffix = self._forced_affix(root, reverse=True)
        summary = (prefix, suffix, min_len)
        self._memo_set(("affix", root), (summary,))
        return summary

    def _min_lengths(self, root: Nonterminal) -> dict[Nonterminal, int]:
        """Shortest derivable string length per reachable nonterminal.

        Nonterminals with an empty language (unproductive, or undefined
        references) are absent from the result.  Memoized per root; the
        returned dict is shared, so callers must not mutate it.
        """
        cached = self._memo_get(("minlen", root))
        if cached is not None:
            return cached
        # Knuth's generalization of Dijkstra (IPL 1977): a rule's length
        # is known once its last nonterminal's is, and the shortest
        # pending lhs length is final when popped
        heap: list[tuple[int, Nonterminal]] = []
        waiting: dict[Nonterminal, list[list]] = {}
        for nt in self.reachable(root):
            for rhs in self.productions.get(nt, ()):
                total = 0
                refs = []
                for symbol in rhs:
                    if type(symbol) is Lit:
                        total += len(symbol.text)
                    elif type(symbol) is CharSet:
                        if symbol.size() == 0:
                            break
                        total += 1
                    else:
                        refs.append(symbol)
                else:
                    if not refs:
                        heap.append((total, nt))
                        continue
                    # [lhs, nonterminal occurrences still unknown, length so far]
                    cell = [nt, len(refs), total]
                    for ref in refs:
                        waiting.setdefault(ref, []).append(cell)
        heapq.heapify(heap)
        lengths: dict[Nonterminal, int] = {}
        while heap:
            length, nt = heapq.heappop(heap)
            if nt in lengths:
                continue
            lengths[nt] = length
            for cell in waiting.pop(nt, ()):
                cell[1] -= 1
                cell[2] += length
                if cell[1] == 0 and cell[0] not in lengths:
                    heapq.heappush(heap, (cell[2], cell[0]))
        self._memo_set(("minlen", root), lengths)
        return lengths

    def _forced_affix(self, root: Nonterminal, *, reverse: bool) -> str:
        """Longest literal prefix (or suffix, ``reverse=True``) every
        string of L(root) must carry.  Under-approximate but sound."""
        affix, _ = _nt_affix(self.productions, {}, root, reverse)
        return affix[::-1] if reverse else affix

    def generates(self, root: Nonterminal, text: str) -> bool:
        """Membership test: does ``root`` derive ``text``?

        A bottom-up span table (CYK-style, but directly over our symbol
        kinds) with a per-span fixpoint so cyclic/unit/epsilon rules are
        handled exactly.  Not meant for production use — the policy
        checks use automata intersections — but invaluable for tests and
        for validating witness strings.
        """
        n = len(text)
        reach = [nt for nt in self.reachable(root) if nt in self.productions]
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
                            for rhs in self.productions.get(nt, ())
                        ):
                            table.add((nt, i, j))
                            changed = True
        return (root, 0, n) in table

    # -- transformation ----------------------------------------------------

    def normalized(self, root: Nonterminal | None = None) -> "Grammar":
        """Equivalent grammar with every rhs of length ≤ 2 (paper's NORMALIZE).

        Long right-hand sides are split with fresh unlabeled chain
        variables; labels on original nonterminals are preserved.

        Memoized per (grammar revision, root): policy cascades run many
        intersection queries against one frozen scope subgrammar, and
        every consumer (:class:`~repro.lang.intersect._PairTable`,
        :func:`~repro.lang.image.fst_image`) treats the result as
        read-only.
        """
        root = root or self.start
        memo_key = ("normalized", root)
        cached = self._memo_get(memo_key)
        if cached is not None:
            return cached
        result = Grammar(root)
        # chain variable -> the original lhs its name derives from; the
        # image cache uses this to re-derive generated names on a hit
        chain_source: dict[Nonterminal, Nonterminal] = {}
        result._chain_source = chain_source
        for nt in self.productions:
            result.productions.setdefault(nt, [])
        for nt, rules in self.productions.items():
            for rhs in rules:
                current = nt
                remaining = rhs
                while len(remaining) > 2:
                    chain = result.fresh(f"{nt.name}~")
                    chain_source[chain] = nt
                    result.add(current, (remaining[0], chain))
                    current = chain
                    remaining = remaining[1:]
                result.add(current, remaining)
        result.copy_labels_from(self, self.productions)
        self._memo_set(memo_key, result)
        return result

    def __repr__(self) -> str:
        return (
            f"Grammar(start={self.start}, |V|={len(self.productions)}, "
            f"|R|={self.num_productions()})"
        )

    def dump(self, root: Nonterminal | None = None, limit: int = 60) -> str:
        """Human-readable production listing (for reports and debugging)."""
        root = root or self.start
        order = sorted(self.reachable(root) if root else self.productions)
        lines = []
        for nt in order[:limit]:
            tags = ",".join(sorted(self.labels.get(nt, ())))
            tag_str = f"  [{tags}]" if tags else ""
            for rhs in self.productions.get(nt, ()):
                shown = " ".join(_show_symbol(s) for s in rhs) or "ε"
                lines.append(f"{nt.name} -> {shown}{tag_str}")
            if not self.productions.get(nt):
                lines.append(f"{nt.name} -> <no productions>{tag_str}")
        if len(order) > limit:
            lines.append(f"… ({len(order) - limit} more nonterminals)")
        return "\n".join(lines)


def _cost_rules(
    rules: Iterable[Rhs], lengths: dict[Nonterminal, int]
) -> list[tuple[tuple, int]]:
    """``rules`` as :meth:`Grammar.shortest_strings` expands them: each
    productive rule with its literals as plain ``str`` and the length of
    its shortest derivation; rules with an empty-language symbol are
    dropped."""
    out = []
    for rhs in rules:
        cost = 0
        body = []
        for symbol in rhs:
            if type(symbol) is Lit:
                cost += len(symbol.text)
                body.append(symbol.text)
                continue
            if type(symbol) is CharSet:
                if symbol.size() == 0:
                    break
                cost += 1
            else:
                ref = lengths.get(symbol)
                if ref is None:
                    break
                cost += ref
            body.append(symbol)
        else:
            out.append((tuple(body), cost))
    return out


# Module-level recursion for the Grammar helpers above: a nested
# function that calls itself closes over its own cell, a reference cycle
# that only the cyclic collector can free (DESIGN.md "Collector pauses").


def _symbol_affix(productions, memo, symbol, reverse: bool) -> tuple[str, bool]:
    """(affix, exact): exact means the symbol derives exactly that one
    string, so a following symbol's affix may extend it."""
    if isinstance(symbol, Lit):
        text = symbol.text[::-1] if reverse else symbol.text
        return text, True
    if isinstance(symbol, CharSet):
        if symbol.size() == 1:
            return next(symbol.chars(limit=1)), True
        return "", False
    return _nt_affix(productions, memo, symbol, reverse)


def _seq_affix(productions, memo, rhs: Rhs, reverse: bool) -> tuple[str, bool]:
    parts: list[str] = []
    for symbol in reversed(rhs) if reverse else rhs:
        affix, exact = _symbol_affix(productions, memo, symbol, reverse)
        parts.append(affix)
        if not exact:
            return "".join(parts), False
    return "".join(parts), True


def _nt_affix(
    productions, memo: dict, nt: Nonterminal, reverse: bool
) -> tuple[str, bool]:
    if nt in memo:
        entry = memo[nt]
        # A cycle (entry is None) forces the affix open here.
        return ("", False) if entry is None else entry
    rhss = productions.get(nt)
    if not rhss:
        memo[nt] = ("", False)
        return memo[nt]
    memo[nt] = None
    options = [_seq_affix(productions, memo, rhs, reverse) for rhs in rhss]
    common = options[0][0]
    for text, _ in options[1:]:
        limit = min(len(common), len(text))
        i = 0
        while i < limit and common[i] == text[i]:
            i += 1
        common = common[:i]
    exact = all(e for _, e in options) and all(
        text == common for text, _ in options
    )
    memo[nt] = (common, exact)
    return memo[nt]


def _seq_derives(
    text: str, table: set, rhs: Rhs, k: int, i: int, j: int
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


def _canonical_symbol(symbol: Symbol, index: dict[Nonterminal, int]) -> str:
    if isinstance(symbol, Lit):
        return "L" + repr(symbol.text)
    if isinstance(symbol, CharSet):
        # raw intervals, not repr() (which truncates past 8 intervals)
        return "C" + ";".join(f"{lo}-{hi}" for lo, hi in symbol.intervals)
    return f"N{index[symbol]}"


def _show_symbol(symbol: Symbol) -> str:
    if isinstance(symbol, Lit):
        return repr(symbol.text)
    if isinstance(symbol, CharSet):
        return repr(symbol)
    return symbol.name
