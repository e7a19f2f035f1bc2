"""The grammar-building abstract domain.

:class:`GrammarBuilder` wraps the single growing :class:`Grammar` the
string-taint analysis constructs (paper §3.1): every abstract operation
on strings — literal, concatenation, join of control-flow branches,
regular-language refinement, transducer image, widening — is a grammar
construction that returns a fresh nonterminal.  The builder is shared by
the interpreter (:mod:`repro.analysis.stringtaint`) and the builtin
function models (:mod:`repro.php.builtins`).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from repro.lang.charset import CharSet
from repro.lang.fsa import DFA, NFA
from repro.lang.fst import FST, FSTExplosion
from repro.lang.grammar import (
    Grammar,
    Lit,
    Nonterminal,
    Symbol,
    gc_paused,
    place_in_slot,
    reserve_uid,
)
from repro.lang.image import DeferredImage, fst_image, regular_image
from repro.lang.intersect import intersect
from repro.lang.regex import Pattern, search_language
from repro.obs.metrics import PERF
from repro.obs.timeline import TIMELINE

from .values import ArrVal, StrVal, Value


@dataclass
class _Pending:
    """A deferred image's alias, until forced: the image, the operand
    it was taken of, the uid reserved for its nonterminals, its origin
    event (``after`` filled in at force time) and the span op hint."""

    image: DeferredImage
    operand: Nonterminal
    slot: int
    event: dict
    hint: str


class GrammarBuilder:
    """Helpers for building the analysis grammar.

    ``widen_threshold`` implements the improvement the paper's §5.3
    proposes: sequences of replacement operations on *displayed* text
    blow the grammar up exponentially (Tiger PHP News' forum markup);
    when an operand's subgrammar exceeds the threshold, it is widened to
    its charset closure (sound, taint-preserving) before the transducer
    image or intersection is computed, so chains stay linear.  Query
    construction code rarely reaches the threshold, keeping precision
    where it matters.

    An image that is itself above the threshold is *deferred* (DESIGN
    §5o): its alias stands for the image's own widening until a reader
    that needs the exact rules forces it (:meth:`force`, :meth:`settle`).
    """

    def __init__(
        self, widen_threshold: int = 600, widen_strategy: str = "closure"
    ) -> None:
        if widen_strategy not in ("closure", "mohri-nederhof"):
            raise ValueError(f"unknown widen strategy {widen_strategy!r}")
        self.grammar = Grammar()
        self.widen_threshold = widen_threshold
        self.widen_strategy = widen_strategy
        self._counter = itertools.count()
        self._literal_cache: dict[str, Nonterminal] = {}
        #: soundness-audit hook (an AuditTrail); every widening — the one
        #: chokepoint where the analysis trades precision for size — is
        #: reported here so verdicts can carry a precision caveat
        self.audit = None
        #: provenance context, kept current by the interpreter exactly
        #: like ``AuditTrail.location``/``call_context``: the statement
        #: site being interpreted, and the builtin call (if any) whose
        #: model is running.  Consumed by the origin events below.
        self.site: tuple[str, int] = ("", 0)
        self.call_name: str | None = None
        #: extra fields for the next labeled ``any_string`` birth (byte
        #: span of the source expression, superglobal key, …); set by the
        #: interpreter around superglobal reads, consumed once
        self.source_extra: dict | None = None
        #: deferred images not yet forced, by alias
        self._deferred: dict[Nonterminal, _Pending] = {}

    # -- provenance -----------------------------------------------------------

    def _origin_event(self, kind: str, name: str, **extra) -> dict:
        file, line = self.site
        event = {"kind": kind, "name": name, "file": file, "line": line}
        event.update(extra)
        return event

    def _prov_sample(self, nt: Nonterminal) -> str:
        """A short non-empty example string of ``L(nt)`` (or "")."""
        with PERF.timer("provenance.samples"):
            for text in self.grammar.sample_strings(nt, limit=3, max_len=48):
                if text:
                    return text
        return ""

    def taint_through(
        self,
        result: StrVal,
        operands: Iterable[Value],
        name: str,
        kind: str = "flow",
    ) -> StrVal:
        """Sound flow-through: ``result`` (a fresh Σ*) inherits every
        operand label, and — new for provenance — a dataflow edge plus a
        ``flow`` event so the chain from source to sink survives the
        structural disconnect (the fresh Σ* has no production referencing
        the operands)."""
        tainted_inputs: list[Nonterminal] = []
        for value in operands:
            if isinstance(value, StrVal):
                labels = self.labels_of(value)
                if labels:
                    for label in labels:
                        self.grammar.add_label(result.nt, label)
                    tainted_inputs.append(value.nt)
        if tainted_inputs:
            self.grammar.set_origin(
                result.nt, self._origin_event(kind, name), inputs=tainted_inputs
            )
        return result

    def _scoped(self, value: StrVal, hint: str) -> tuple[Grammar, StrVal]:
        """The operand's subgrammar, widening oversized operands first.

        The size test sums the reachable rule lists in place: they are
        deduplicated, so the sum is the copy's ``num_productions()``, and
        an oversized operand is widened without being copied first.  An
        operand reaching a deferred image is always oversized, so it is
        never copied with a stand-in inside."""
        if self.operand_size(value) > self.widen_threshold:
            value = self.widen(value, f"{hint}▽")
        return self.grammar.subgrammar(value.nt), value

    def operand_size(self, value: StrVal) -> int:
        """Rules reachable from ``value`` (its subgrammar's size).

        A deferred image counts as its plan's lower bound, which is
        above the threshold and at most what the built image counts, so
        every widening decision is the one the built image gets."""
        productions = self.grammar.productions
        reach = self.grammar.reachable(value.nt)
        deferred = self._deferred
        if not deferred:
            return sum(len(productions.get(nt, ())) for nt in reach)
        return sum(
            deferred[nt].image.size if nt in deferred
            else len(productions.get(nt, ()))
            for nt in reach
        )

    # -- basic constructors ---------------------------------------------------

    def fresh(self, hint: str = "v") -> Nonterminal:
        return self.grammar.fresh(f"{hint}#{next(self._counter)}")

    def literal(self, text: str) -> StrVal:
        if text not in self._literal_cache:
            nt = self.fresh("lit")
            self.grammar.add(nt, (Lit(text),) if text else ())
            self._literal_cache[text] = nt
        return StrVal(self._literal_cache[text])

    def any_string(
        self, label: str | None = None, hint: str = "Σ*", **origin
    ) -> StrVal:
        """Σ* — the unknown string; optionally taint-labeled at birth.

        Keyword ``origin`` extras (e.g. ``span=[lo, hi]``) are recorded on
        the source event; fields in :attr:`source_extra` override them."""
        nt = self.fresh(hint)
        self.grammar.add(nt, ())
        self.grammar.add(nt, (CharSet.any_char(), nt))
        if label:
            self.grammar.add_label(nt, label)
            if self.source_extra:
                origin.update(self.source_extra)
            self.grammar.set_origin(
                nt, self._origin_event("source", hint, label=label, **origin)
            )
        return StrVal(nt)

    def charset_star(self, charset: CharSet, hint: str = "C*") -> StrVal:
        nt = self.fresh(hint)
        self.grammar.add(nt, ())
        if charset:
            self.grammar.add(nt, (charset, nt))
        return StrVal(nt)

    def from_symbols(self, symbols: Iterable[Symbol], hint: str = "seq") -> StrVal:
        nt = self.fresh(hint)
        self.grammar.add(nt, tuple(symbols))
        return StrVal(nt)

    def from_nfa(self, nfa: NFA, hint: str = "re") -> StrVal:
        """A right-linear grammar for the NFA's language."""
        states = {
            state: self.fresh(f"{hint}.q{state}") for state in range(nfa.num_states)
        }
        for src, edges in nfa.transitions.items():
            for label, dst in edges:
                self.grammar.add(states[src], (label, states[dst]))
        for src, dsts in nfa.epsilons.items():
            for dst in dsts:
                self.grammar.add(states[src], (states[dst],))
        for accept in nfa.accepts:
            self.grammar.add(states[accept], ())
        return StrVal(states[nfa.start])

    # -- combination -------------------------------------------------------------

    def concat(self, left: StrVal, right: StrVal) -> StrVal:
        nt = self.fresh("cat")
        self.grammar.add(nt, (left.nt, right.nt))
        return StrVal(nt)

    def concat_all(self, parts: Iterable[StrVal]) -> StrVal:
        parts = list(parts)
        if not parts:
            return self.literal("")
        result = parts[0]
        for part in parts[1:]:
            result = self.concat(result, part)
        return result

    def join(self, values: Iterable[StrVal], hint: str = "φ") -> StrVal:
        """Control-flow join: a φ nonterminal deriving every branch."""
        values = list(values)
        if len(values) == 1:
            return values[0]
        nt = self.fresh(hint)
        for value in values:
            self.grammar.add(nt, (value.nt,))
        return StrVal(nt)

    # -- taint ---------------------------------------------------------------------

    def taint(self, value: StrVal, label: str) -> StrVal:
        self.grammar.add_label(value.nt, label)
        return value

    def labels_of(self, value: StrVal) -> set[str]:
        """All labels reachable inside the value's subgrammar."""
        found: set[str] = set()
        for nt in self.grammar.reachable(value.nt):
            found |= self.grammar.labels.get(nt, set())
        return found

    def is_tainted(self, value: StrVal) -> bool:
        return bool(self.labels_of(value))

    # -- language operations ---------------------------------------------------------

    @gc_paused
    def refine(self, value: StrVal, dfa: DFA, hint: str = "∩") -> StrVal:
        """Intersection refinement (conditionals; paper Figure 7).

        The result grammar is imported into the builder's grammar under a
        fresh nonterminal; labels carry over per Theorem 3.1.
        """
        with TIMELINE.phase("intersect", op=hint):
            scope, value = self._scoped(value, hint)
            TIMELINE.annotate("operand_productions", scope.num_productions())
            refined, start = intersect(scope, value.nt, dfa)
        result = self._absorb(refined, start, hint, operand=value.nt)
        self.grammar.set_origin(
            result.nt, self._origin_event("refine", hint), inputs=(value.nt,)
        )
        return result

    def refine_regex(self, value: StrVal, pattern: Pattern, positive: bool) -> StrVal:
        """Refine by a ``preg_match``-style predicate outcome.

        ``positive`` refines to the strings *containing* a match; the
        negative branch intersects with the complement.
        """
        language = search_language(pattern).determinize()
        if not positive:
            language = language.complement()
        return self.refine(value, language, hint="re∩")

    @gc_paused
    def image(self, value: StrVal, fst: FST, hint: str = "fx") -> StrVal:
        """Transducer image; widens the operand first if it would blow up,
        and defers an image that its next consumer would only widen."""
        with TIMELINE.phase("image", op=hint):
            scope, value = self._scoped(value, hint)
            TIMELINE.annotate("operand_productions", scope.num_productions())
            before_sample = self._prov_sample(value.nt)
            try:
                imaged = fst_image(
                    scope, value.nt, fst, defer_above=self.widen_threshold
                )
            except FSTExplosion:
                TIMELINE.annotate("explosion_fallback", True)
                widened, start = regular_image(
                    self.grammar.charset_closure(value.nt), fst
                )
                for label in self.labels_of(value):
                    widened.add_label(start, label)
                imaged = widened, start
            if isinstance(imaged, DeferredImage):
                TIMELINE.annotate("deferred", True)
                return self._defer(imaged, value.nt, hint, before_sample)
        imaged, start = imaged
        result = self._absorb(imaged, start, hint, operand=value.nt)
        event = self._origin_event(
            "sanitizer",
            self.call_name or hint,
            op=hint,
            before=before_sample,
            after=self._prov_sample(result.nt),
        )
        self.grammar.set_origin(result.nt, event, inputs=(value.nt,))
        return result

    # -- deferred images -------------------------------------------------------

    def _defer(
        self, image: DeferredImage, operand: Nonterminal, hint: str, before: str
    ) -> StrVal:
        """The alias of an image left unbuilt: ``alias → ε | C alias``
        with ``C`` the image's charset closure and the image's labels —
        the widening the alias's consumer would compute from the built
        image.  Its origin event is the one :meth:`image` records, with
        ``after`` filled in when the image is forced."""
        PERF.incr("image.deferred")
        slot = reserve_uid()
        alias = self.fresh(hint)
        self.grammar.add(alias, ())
        if image.closure:
            self.grammar.add(alias, (image.closure, alias))
        for label in sorted(image.labels):
            self.grammar.add_label(alias, label)
        event = self._origin_event(
            "sanitizer",
            self.call_name or hint,
            op=hint,
            before=before,
            after="",
        )
        self.grammar.set_origin(alias, event, inputs=(operand,))
        self._deferred[alias] = _Pending(image, operand, slot, event, hint)
        return StrVal(alias)

    @gc_paused
    def _force_one(self, alias: Nonterminal) -> None:
        """Build a deferred image and put it under its alias, leaving the
        page grammar as :meth:`image` would have left it: the image's
        nonterminals take uids from the reserved slot, the alias's rule
        becomes ``alias → start`` and its labels the start's."""
        pending = self._deferred.pop(alias)
        with TIMELINE.phase("image", op=pending.hint, forced=True):
            imaged, start = pending.image.build()
        PERF.incr("image.forced")
        place_in_slot(list(imaged.productions), pending.slot)
        grammar = self.grammar
        for nt, rules in imaged.productions.items():
            grammar._bulk_add(nt, rules)
        for nt, labels in imaged.labels.items():
            for label in labels:
                grammar.add_label(nt, label)
            if labels:
                grammar.add_prov_inputs(nt, (pending.operand,))
        grammar.replace_rules(alias, [(start,)])
        grammar.set_labels(alias, imaged.labels.get(start, ()))
        pending.event["after"] = self._prov_sample(alias)

    def force(self, value: StrVal) -> StrVal:
        """Build every deferred image ``value`` reaches: for readers of
        exact grammar structure (samples, reversal, include paths)."""
        if self._deferred:
            reach = self.grammar.reachable(value.nt)
            for alias in sorted(self._deferred.keys() & reach):
                self._force_one(alias)
        return value

    def settle(self, roots: Iterable[Nonterminal]) -> None:
        """End of phase 1: force every deferred image the hotspot
        queries ``roots`` reach over productions or ``prov_inputs``
        edges (a finding's provenance reads the image's origin event),
        then drop the plans of the rest.  Those keep their stand-in; a
        later :meth:`force` re-plans them."""
        if not self._deferred:
            return
        grammar = self.grammar
        seen = set(roots)
        stack = list(seen)
        while stack:
            nt = stack.pop()
            for rhs in grammar.productions.get(nt, ()):
                for symbol in rhs:
                    if type(symbol) is Nonterminal and symbol not in seen:
                        seen.add(symbol)
                        stack.append(symbol)
            for symbol in grammar.prov_inputs.get(nt, ()):
                if symbol not in seen:
                    seen.add(symbol)
                    stack.append(symbol)
        for alias in sorted(self._deferred.keys() & seen):
            self._force_one(alias)
        for pending in self._deferred.values():
            pending.image.release()

    def widen(self, value: StrVal, hint: str = "▽") -> StrVal:
        """Regular over-approximation of the value (keeps taint).

        ``closure`` (default): L(value) ⊆ closure* — tiny (one
        nonterminal) but structure-destroying; the anti-blow-up bound.
        ``mohri-nederhof``: the structure-preserving strongly regular
        approximation ([21] in the paper) — keeps literal skeletons at
        roughly the original grammar size.
        """
        if self.audit is not None:
            self.audit.record_widening(hint)
        if self.widen_strategy == "mohri-nederhof":
            from repro.lang.approx import is_strongly_regular, mohri_nederhof

            scope = self.grammar.subgrammar(self.force(value).nt)
            if not is_strongly_regular(scope, value.nt):
                approx, root = mohri_nederhof(scope, value.nt)
                result = self._absorb(approx, root, hint, operand=value.nt)
                self.grammar.set_origin(
                    result.nt,
                    self._origin_event("widen", hint, strategy="mohri-nederhof"),
                    inputs=(value.nt,),
                )
                return result
            # already regular: fall through to the closure bound (the
            # caller widens because of *size*, which MN would not reduce)
        closure = self.grammar.charset_closure(value.nt)
        widened = self.charset_star(closure, hint)
        for label in self.labels_of(value):
            self.grammar.add_label(widened.nt, label)
        self.grammar.set_origin(
            widened.nt,
            self._origin_event("widen", hint, strategy="closure"),
            inputs=(value.nt,),
        )
        return widened

    def substring_language(self, value: StrVal, hint: str = "sub") -> StrVal:
        """All substrings of all strings of ``value`` (sound for substr)."""
        widened = self.widen(value, hint)
        return widened

    def _absorb(
        self,
        other: Grammar,
        start: Nonterminal,
        hint: str,
        operand: Nonterminal | None = None,
    ) -> StrVal:
        """Import another grammar's productions (they use fresh NT objects,
        so a plain merge is safe) and alias its start.

        ``operand`` is the nonterminal the absorbed grammar was computed
        *from* (intersection/image/widening input).  Every labeled
        nonterminal of the product construction — the state-split copies
        of the operand's untrusted sources — gets a ``prov_inputs`` edge
        back to it, so provenance traced from a split copy still reaches
        the original source site."""
        for nt, rules in other.productions.items():
            self.grammar._bulk_add(nt, rules)
        for nt, labels in other.labels.items():
            for label in labels:
                self.grammar.add_label(nt, label)
            if labels and operand is not None:
                self.grammar.add_prov_inputs(nt, (operand,))
        alias = self.fresh(hint)
        self.grammar.add(alias, (start,))
        self.grammar.copy_labels(start, alias)
        return StrVal(alias)

    # -- value coercion ------------------------------------------------------------

    def to_str(self, value: Value | None) -> StrVal:
        """Coerce any abstract value to a string value (PHP semantics-ish)."""
        if isinstance(value, StrVal):
            return value
        if isinstance(value, ArrVal):
            return self.literal("Array")  # PHP's (string) cast of an array
        from .values import ObjVal

        if isinstance(value, ObjVal):
            return self.literal("Object")
        return self.literal("")

    def sample(self, value: StrVal, limit: int = 10) -> list[str]:
        return self.grammar.sample_strings(self.force(value).nt, limit=limit)
