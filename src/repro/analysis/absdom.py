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
from typing import Iterable

from repro.lang.charset import CharSet
from repro.lang.fsa import DFA, NFA
from repro.lang.fst import FST, FSTExplosion
from repro.lang.grammar import Grammar, Lit, Nonterminal, Symbol, gc_paused
from repro.lang.image import fst_image, regular_image
from repro.lang.intersect import intersect
from repro.lang.regex import Pattern, search_language
from repro.obs.metrics import PERF
from repro.obs.timeline import TIMELINE

from .values import ArrVal, StrVal, Value


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
        """The operand's subgrammar, widening oversized operands first."""
        scope = self.grammar.subgrammar(value.nt)
        if scope.num_productions() > self.widen_threshold:
            value = self.widen(value, f"{hint}▽")
            scope = self.grammar.subgrammar(value.nt)
        return scope, value

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
        """Transducer image; widens the operand first if it would blow up."""
        with TIMELINE.phase("image", op=hint):
            scope, value = self._scoped(value, hint)
            TIMELINE.annotate("operand_productions", scope.num_productions())
            before_sample = self._prov_sample(value.nt)
            try:
                imaged, start = fst_image(scope, value.nt, fst)
            except FSTExplosion:
                TIMELINE.annotate("explosion_fallback", True)
                imaged, start = regular_image(
                    self.grammar.charset_closure(value.nt), fst
                )
                for label in self.labels_of(value):
                    imaged.add_label(start, label)
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

            scope = self.grammar.subgrammar(value.nt)
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
        return self.grammar.sample_strings(value.nt, limit=limit)
