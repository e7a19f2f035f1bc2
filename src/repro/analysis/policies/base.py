"""The :class:`SinkPolicy` interface and shared check helpers.

A sink policy packages one vulnerability class for the two-phase
analysis: *which* program points are sinks (function names, method
names, language constructs), and *when* an untrusted substring of the
sink's string argument is dangerous — expressed, as in the paper, as
regular languages intersected against the hotspot's labeled grammar.

The framework supplies everything around that kernel: hotspot
recording (:mod:`repro.analysis.stringtaint` consults the policy
tables), memoization (verdicts are namespaced by policy id into the
phase-2 verdict cache), provenance derivation, SARIF rule plumbing,
disk-cache keying, and the CLI/server/fuzz integration.
"""

from __future__ import annotations

from functools import lru_cache

from repro.lang.charset import CharSet
from repro.lang.fsa import DFA, NFA
from repro.lang.intersect import intersection_is_empty

from ..policy import _witness, check_hotspot
from ..reports import Finding


class SinkPolicy:
    """One pluggable vulnerability class.

    Subclasses set the class attributes and implement
    :meth:`check_labeled`; instances are stateless and shared.
    """

    #: policy id — doubles as the ``Hotspot.kind`` discriminator and the
    #: default verdict-cache namespace; it also names the ``cascade:<id>``
    #: timeline phase
    id: str = ""
    #: human-readable vulnerability title (SARIF message prefix)
    title: str = ""
    #: default function sinks: lower-case name → sink argument index
    functions: dict[str, int] = {}
    #: method-call sinks, matched by method name (argument 0)
    methods: frozenset[str] = frozenset()
    #: language constructs claimed as sinks: subset of {"echo", "include"}
    constructs: frozenset[str] = frozenset()
    #: SARIF ``reportingDescriptor`` entries this policy contributes
    rules: list[dict] = []
    #: True when the policy claims ``preg_replace``'s ``/e`` replacement
    claims_preg_eval: bool = False

    def check(self, grammar, hotspot, cache=None):
        """The :class:`~repro.analysis.reports.HotspotReport` for one
        hotspot of this policy's kind (memoized per policy namespace)."""
        return check_hotspot(grammar, hotspot, self, cache)

    @property
    def namespace(self) -> str:
        """The verdict-cache namespace: the policy id."""
        return self.id

    def check_labeled(self, scope, root, labeled, hotspot, others):
        """Findings for one maximal labeled nonterminal (≥ 1 entry)."""
        raise NotImplementedError

    def warm(self) -> None:
        """Pre-build this policy's danger automata.

        Called from parallel-worker initializers so the first page each
        worker analyzes does not pay cold NFA→DFA construction.  Every
        danger constructor is process-cached (``lru_cache``), so warming
        is idempotent; the default is a no-op for policies without
        eagerly buildable automata."""

    def finding(
        self,
        labeled,
        hotspot,
        scope,
        check: str,
        safe: bool,
        witness: str = "",
        witness_unavailable: bool = False,
        detail: str = "",
        context: str = "",
    ) -> Finding:
        return Finding(
            file=hotspot.file,
            line=hotspot.line,
            sink=hotspot.sink,
            nonterminal=labeled.name,
            labels=frozenset(scope.labels.get(labeled, ())),
            check=check,
            safe=safe,
            witness=witness,
            detail=detail,
            witness_unavailable=witness_unavailable,
            context=context,
            policy=self.id,
        )

    def danger_finding(
        self,
        scope,
        labeled,
        hotspot,
        dangers,
        check: str,
        safe_detail: str,
        unsafe_detail: str,
        context: str = "",
    ) -> Finding:
        """SAFE iff ``L(labeled)`` misses every danger language; on a hit
        the witness comes from the first non-empty intersection, with the
        explicit ``witness_unavailable`` marker when sampling misses
        every accepting derivation."""
        for dfa in dangers:
            if intersection_is_empty(scope, labeled, dfa):
                continue
            witness = _witness(scope, labeled, dfa)
            return self.finding(
                labeled,
                hotspot,
                scope,
                check=check,
                safe=False,
                witness=witness,
                witness_unavailable=not witness,
                detail=unsafe_detail,
                context=context,
            )
        return self.finding(
            labeled,
            hotspot,
            scope,
            check=check,
            safe=True,
            detail=safe_detail,
            context=context,
        )


# -- shared danger-language constructors -------------------------------------


@lru_cache(maxsize=None)
def contains_any(chars: str) -> DFA:
    """Σ*·[chars]·Σ* — strings containing any of ``chars``."""
    language = (
        NFA.any_string()
        .concat(NFA.from_charset(CharSet.of(chars)))
        .concat(NFA.any_string())
    )
    return language.determinize().minimize()


@lru_cache(maxsize=None)
def contains_string(word: str) -> DFA:
    """Σ*·word·Σ* — strings containing ``word`` as a substring."""
    language = (
        NFA.any_string().concat(NFA.from_string(word)).concat(NFA.any_string())
    )
    return language.determinize().minimize()


@lru_cache(maxsize=None)
def starts_with_any(prefixes: tuple[str, ...]) -> DFA:
    """(p₁|…|pₙ)·Σ* — strings with one of ``prefixes``."""
    core = NFA.nothing()
    for prefix in prefixes:
        core = core.union(NFA.from_string(prefix))
    return core.concat(NFA.any_string()).determinize().minimize()


@lru_cache(maxsize=None)
def not_only(char_class_regex: str) -> DFA:
    """Complement of the full-match language ``char_class_regex *`` —
    strings containing at least one character outside the class."""
    from repro.lang.regex import full_match_language, parse_regex

    inert = full_match_language(parse_regex(char_class_regex)).determinize()
    return inert.complement()
