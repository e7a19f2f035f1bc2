"""Phase 2: policy-conformance analysis (paper §3.2).

For each hotspot, every *maximal* labeled nonterminal ``X`` (one whose
untrusted substrings are not part of a larger untrusted substring) is
run through the paper's check cascade:

C1 ``odd-quotes``       — some string of ``L(X)`` has an odd number of
                          unescaped quotes ⇒ it can never be confined ⇒
                          violation.
C2 ``literal-position`` — if every occurrence of ``X`` in the query
                          grammar sits inside a single-quoted literal
                          (checked by abstracting ``X`` to a fresh
                          terminal and a regular containment), then
                          ``X`` is safe iff ``L(X)`` has no unescaped
                          quote (``literal-break`` otherwise).
C3 ``numeric``          — ``L(X)`` ⊆ numeric literals ⇒ safe.
C4 ``attack-string``    — ``X`` derives a known non-confinable fragment
                          outside quotes ⇒ violation.
C5 ``derivability``     — fallback (§3.2.2): tokenize the query grammar
                          with ``X`` as a hole, compute the SQL
                          nonterminals that fit every context, and check
                          Definition 3.2 derivability of ``X``'s
                          subgrammar from one of them.  Tokenization or
                          derivability failure ⇒ violation (fail closed —
                          this preserves Theorem 3.4).
"""

from __future__ import annotations

from collections import OrderedDict
from functools import lru_cache

from repro.lang.earley import (
    candidate_fixpoint,
    derivability,
    enumerate_strings,
    parse_sentential_form,
)
from repro.lang.grammar import Grammar, Lit, Nonterminal, gc_paused
from repro.lang.intersect import intersect, intersection_is_empty
from repro.obs.timeline import TIMELINE
from repro.obs.metrics import PERF
from repro.sql.bridge import TokenizationFailure, grammar_to_tokens
from repro.sql.grammar import sql_grammar

from . import quotes
from .provenance import trace_provenance
from .reports import Finding, HotspotReport
from .stringtaint import Hotspot

HOLE_TOKEN = "⟨X⟩"


class VerdictCache:
    """Content-addressed memo over phase-2 verdicts (bounded LRU).

    Keyed by the canonical fingerprint of a hotspot's trimmed labeled
    subgrammar (:meth:`repro.lang.grammar.Grammar.fingerprint`).  The
    paper's evaluation (§5.3) analyzes every entry page as a separate
    ``main`` and relies on memoization to keep whole-application runs
    tractable: structurally identical query subgrammars recur across
    pages via shared includes, and Definition 3.2's outcome is a function
    of the (trimmed, labeled) grammar alone — so one cascade run answers
    every recurrence.  See DESIGN.md "Content-addressed caching" for the
    soundness argument.

    Values store findings *abstractly* — the labeled nonterminal is
    recorded by canonical index, not by name — so a hit can be replayed
    against a different page's grammar objects and still report that
    page's own nonterminal names.
    """

    def __init__(self, maxsize: int = 4096) -> None:
        self.maxsize = maxsize
        self._entries: OrderedDict[str, dict] = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> dict | None:
        entry = self._entries.get(key)
        if entry is not None:
            self._entries.move_to_end(key)
        return entry

    def put(self, key: str, value: dict) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        if len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            PERF.incr("policy.verdict_cache.evictions")
        PERF.gauge("policy.verdict_cache.size", len(self._entries))

    def clear(self) -> None:
        self._entries.clear()


#: Process-wide phase-2 memo.  Serial runs share it across every page;
#: parallel runs get one per worker process.
VERDICT_CACHE = VerdictCache()

@gc_paused
def check_hotspot(
    grammar: Grammar,
    hotspot: Hotspot,
    policy,
    cache: VerdictCache | None = None,
) -> HotspotReport:
    """Run a sink policy's check cascade for one hotspot (memoized).

    ``policy`` is the :class:`~repro.analysis.policies.SinkPolicy` whose
    checks run; its ``namespace`` keeps its memo entries apart from
    other policies' verdicts on the same subgrammar fingerprint.

    ``cache`` defaults to the process-wide :data:`VERDICT_CACHE`; pass an
    explicit :class:`VerdictCache` to isolate, or construct one with
    ``maxsize=0``-style behaviour by passing a fresh instance per call.
    """
    if cache is None:
        cache = VERDICT_CACHE
    report = HotspotReport(file=hotspot.file, line=hotspot.line, sink=hotspot.sink)
    root = hotspot.query.nt
    with TIMELINE.phase(
        "hotspot", file=hotspot.file, line=hotspot.line, sink=hotspot.sink
    ):
        scope = grammar.subgrammar(root).trim(root)
        with TIMELINE.phase("verdict-memo"):
            with PERF.latency("policy.verdict_lookup_seconds"):
                with PERF.timer("phase2.fingerprint"):
                    order = scope.canonical_order(root)
                    key = scope.fingerprint(root, order=order)
                    if policy.namespace:
                        key = f"{policy.namespace}:{key}"
                cached = cache.get(key)
            outcome = "miss" if cached is None else "hit"
            TIMELINE.annotate("outcome", outcome)
        PERF.gauge("policy.scope_productions.max", scope.num_productions())
        TIMELINE.annotate("scope_productions", scope.num_productions())
        TIMELINE.annotate("fingerprint", key[:16])
        TIMELINE.annotate("verdict_cache", outcome)
        if cached is not None:
            PERF.incr("policy.verdict_cache.hits")
            _report_from_cached(cached, report, order)
        else:
            PERF.incr("policy.verdict_cache.misses")
            with PERF.timer("phase2.cascade"), TIMELINE.phase(
                f"cascade:{policy.id}"
            ):
                _cascade(policy, scope, root, hotspot, report)
            cache.put(key, _cached_from_report(report, order))
        # provenance is attached *after* both paths, from the hitting
        # page's grammar: cached verdicts re-bind to this page's source
        # sites and sanitizer calls exactly like witnesses re-bind to
        # its nonterminal names
        _attach_provenance(grammar, report)
    return report


def _attach_provenance(grammar: Grammar, report: HotspotReport) -> None:
    """Derive each finding's taint chain from the page grammar.

    Consumes ``report._finding_nts`` (set by :func:`_cascade` on the
    miss path and by :func:`_report_from_cached` on the hit path) and
    removes it afterwards, keeping reports free of live grammar objects
    — they travel through pickles (disk cache, worker processes)."""
    kept_nts = getattr(report, "_finding_nts", None)
    if kept_nts is None:
        return
    with PERF.timer("phase2.provenance"):
        for finding, labeled in zip(report.findings, kept_nts):
            if labeled is None:
                continue
            finding.provenance = trace_provenance(
                grammar, labeled, check=finding.check
            )
    del report._finding_nts


def _cascade(
    policy, scope: Grammar, root: Nonterminal, hotspot: Hotspot, report: HotspotReport
) -> None:
    """The uncached cascade of ``policy``: sample the sink string, check
    every maximal labeled nonterminal, and fill ``report``.  Sets
    ``report._finding_nts``, parallel to ``report.findings``, to the
    labeled nonterminal each finding is about."""
    PERF.incr("policy.check_cascades")
    report.query_samples = scope.shortest_strings(root, limit=3)
    maximal = maximal_labeled(scope, root)
    findings: list[tuple[Nonterminal, Finding]] = []
    for labeled in maximal:
        for finding in policy.check_labeled(
            scope, root, labeled, hotspot, others=maximal
        ):
            findings.append((labeled, finding))
    # One untrusted source can appear as several automaton-state-split
    # nonterminals after refinement; they describe the same substring set
    # piecewise, so collapse findings with the same verdict shape.
    seen: dict[tuple, int] = {}
    kept_nts: list[Nonterminal] = []
    for labeled, finding in findings:
        key = (finding.category, finding.check, finding.safe, finding.context)
        if key in seen:
            kept = report.findings[seen[key]]
            if finding.witness and not kept.witness:
                kept.witness = finding.witness
                kept.witness_unavailable = False
            continue
        seen[key] = len(report.findings)
        report.findings.append(finding)
        kept_nts.append(labeled)
    report._finding_nts = kept_nts  # consumed by _cached_from_report


def _cached_from_report(report: HotspotReport, order: list[Nonterminal]) -> dict:
    index = {nt: i for i, nt in enumerate(order)}
    kept_nts = getattr(report, "_finding_nts", [])
    entry_findings = []
    for position, finding in enumerate(report.findings):
        labeled = kept_nts[position] if position < len(kept_nts) else None
        entry = {
            "nt_index": index.get(labeled),
            "nt_name": finding.nonterminal,
            "labels": sorted(finding.labels),
            "check": finding.check,
            "safe": finding.safe,
            "witness": finding.witness,
            "example_query": finding.example_query,
            "detail": finding.detail,
        }
        if finding.witness_unavailable:
            entry["witness_unavailable"] = True
        if finding.context:
            entry["context"] = finding.context
        if finding.policy:
            entry["policy"] = finding.policy
        entry_findings.append(entry)
    return {
        "query_samples": list(report.query_samples),
        "findings": entry_findings,
    }


def _report_from_cached(
    cached: dict, report: HotspotReport, order: list[Nonterminal]
) -> HotspotReport:
    report.query_samples = list(cached["query_samples"])
    bound_nts: list[Nonterminal | None] = []
    for entry in cached["findings"]:
        nt_index = entry["nt_index"]
        bound = (
            order[nt_index]
            if nt_index is not None and nt_index < len(order)
            else None
        )
        bound_nts.append(bound)
        name = bound.name if bound is not None else entry["nt_name"]
        report.findings.append(
            Finding(
                file=report.file,
                line=report.line,
                sink=report.sink,
                nonterminal=name,
                labels=frozenset(entry["labels"]),
                check=entry["check"],
                safe=entry["safe"],
                witness=entry["witness"],
                example_query=entry["example_query"],
                detail=entry["detail"],
                witness_unavailable=entry.get("witness_unavailable", False),
                context=entry.get("context", ""),
                policy=entry.get("policy", ""),
            )
        )
    report._finding_nts = bound_nts  # consumed by _attach_provenance
    return report


def maximal_labeled(scope: Grammar, root: Nonterminal) -> list[Nonterminal]:
    """Labeled nonterminals with no labeled proper ancestor.

    Computed on the SCC condensation so that cycles of labeled
    nonterminals still yield representatives (soundness: every untrusted
    substring occurrence is covered by some maximal labeled node).

    Candidates are walked in *canonical* (BFS-from-root) order so two
    structurally identical subgrammars — the situation the verdict cache
    keys on — produce findings in the same order no matter which page
    built them."""
    labeled = [nt for nt in scope.canonical_order(root) if scope.has_label(nt)]
    if not labeled:
        return []
    reach = {nt: scope.reachable(nt) for nt in labeled}
    maximal = []
    for x in labeled:
        has_strict_ancestor = any(
            y is not x and x in reach[y] and y not in reach[x] for y in labeled
        )
        if has_strict_ancestor:
            continue
        # within a labeled SCC keep a single representative
        in_same_cycle = any(x in reach[y] and y in reach[x] for y in maximal)
        if not in_same_cycle:
            maximal.append(x)
    return maximal


def check_nonterminal(
    scope: Grammar,
    root: Nonterminal,
    labeled: Nonterminal,
    hotspot: Hotspot,
    others: list[Nonterminal] | None = None,
) -> Finding:
    labels = frozenset(scope.labels.get(labeled, ()))

    def finding(check: str, safe: bool, witness: str = "", detail: str = "") -> Finding:
        return Finding(
            file=hotspot.file,
            line=hotspot.line,
            sink=hotspot.sink,
            nonterminal=labeled.name,
            labels=labels,
            check=check,
            safe=safe,
            witness=witness,
            detail=detail,
        )

    # -- C1: odd number of unescaped quotes --------------------------------
    odd = quotes.odd_unescaped_quotes()
    if not intersection_is_empty(scope, labeled, odd):
        witness = _witness(scope, labeled, odd)
        return finding(
            "odd-quotes",
            safe=False,
            witness=witness,
            detail="derives a string with an odd number of unescaped quotes",
        )

    # -- C2: string-literal position ----------------------------------------
    context = _contexts_grammar(scope, root, labeled, others or [])
    only_literal = intersection_is_empty(
        context, root, quotes.markers_outside_string_literals()
    )
    if only_literal:
        breaker = quotes.has_unescaped_quote()
        if intersection_is_empty(scope, labeled, breaker):
            return finding(
                "literal-position",
                safe=True,
                detail="occurs only inside string literals; derives no unescaped quote",
            )
        return finding(
            "literal-break",
            safe=False,
            witness=_witness(scope, labeled, breaker),
            detail="sits inside string literals but derives an unescaped quote",
        )

    # -- C3: numeric literals only ------------------------------------------
    if intersection_is_empty(scope, labeled, quotes.non_numeric_literals()):
        if _nonempty(scope, labeled):
            return finding(
                "numeric", safe=True, detail="derives only numeric literals"
            )

    # -- C4: known non-confinable fragments ----------------------------------
    attacks = quotes.non_confinable_substrings()
    if not intersection_is_empty(scope, labeled, attacks):
        return finding(
            "attack-string",
            safe=False,
            witness=_witness(scope, labeled, attacks),
            detail="derives a known non-confinable fragment outside quotes",
        )

    # -- C5: derivability fallback (§3.2.2) -----------------------------------
    return _check_derivability(scope, root, labeled, finding)


def _check_derivability(scope, root, labeled, finding):
    sql = sql_grammar()
    try:
        context_tokens = grammar_to_tokens(scope, root, special={labeled: HOLE_TOKEN})
    except TokenizationFailure as exc:
        return finding(
            "tokenization",
            safe=False,
            detail=f"query context does not tokenize cleanly: {exc}",
        )
    hole_candidates = _context_candidates(context_tokens, sql)
    if not hole_candidates:
        return finding(
            "derivability",
            safe=False,
            detail="no SQL nonterminal fits the untrusted substring's contexts",
        )
    try:
        sub_tokens = grammar_to_tokens(scope, labeled)
    except TokenizationFailure as exc:
        return finding(
            "tokenization",
            safe=False,
            detail=f"untrusted subgrammar does not tokenize cleanly: {exc}",
        )
    for candidate in hole_candidates:
        result = derivability(
            sub_tokens, sql, sub_tokens.start, allowed_roots=[candidate]
        )
        if result.derivable:
            return finding(
                "derivability",
                safe=True,
                detail=f"subgrammar derivable from SQL nonterminal {candidate!r}",
            )
    return finding(
        "derivability",
        safe=False,
        detail=(
            "subgrammar not derivable from any context-compatible SQL "
            f"nonterminal (contexts allow {hole_candidates[:4]})"
        ),
    )


def _context_candidates(context_tokens, sql) -> list[str]:
    """SQL symbols that can stand for the hole in *every* context.

    Preferred path (the paper's "sentential forms that include X"): when
    the token-level context language is finite, enumerate the forms
    ``s1 ⟨X⟩ s2`` and keep the SQL nonterminals/terminals ``A`` for which
    every ``s1 A s2`` parses as a query.  For infinite context languages
    fall back to the structural candidate fixpoint (conservative)."""
    forms = enumerate_strings(context_tokens, context_tokens.start, max_strings=48)
    if forms is not None:
        with_hole = [form for form in forms if HOLE_TOKEN in form]
        # forms without the hole carry no constraint; if no form mentions
        # the hole, the untrusted data never reaches this query at all
        if not with_hole:
            return []
        before = _form_candidates.cache_info().hits
        fits = [_form_candidates(form) for form in with_hole]
        hits = _form_candidates.cache_info().hits - before
        PERF.incr("policy.context_forms.hits", hits)
        PERF.incr("policy.context_forms.misses", len(with_hole) - hits)
        # every per-form list is in candidate order, so filtering the
        # first one keeps the order of the all-forms loop it replaces
        rest = [set(fit) for fit in fits[1:]]
        return [
            candidate
            for candidate in fits[0]
            if all(candidate in fit for fit in rest)
        ]
    candidates = candidate_fixpoint(
        context_tokens,
        sql,
        allowed={context_tokens.start: [sql.start]},
    )
    return sorted(candidates.get(HOLE_TOKEN, ()))


@lru_cache(maxsize=1024)
def _form_candidates(form: tuple[str, ...]) -> tuple[str, ...]:
    """The SQL symbols ``A`` for which ``form`` with its hole replaced by
    ``A`` parses as a query, in candidate order (nonterminals, then
    sorted terminals).  :func:`sql_grammar` is a process singleton, so
    this is a pure function of the form."""
    sql = sql_grammar()
    return tuple(
        candidate
        for candidate in list(sql.nonterminals()) + sorted(sql.terminals())
        if parse_sentential_form(
            sql,
            sql.start,
            [candidate if s == HOLE_TOKEN else s for s in form],
        )
    )


#: placeholder for *other* untrusted pieces when computing one piece's
#: context: behaves like ordinary quote-free literal content.  Each piece
#: is separately verified not to break out of its own context, so
#: abstracting the others this way is the compositional reading of the
#: paper's "abstracting the labeled subgrammars out of the generated CFG".
NEUTRAL = "\ue001"


def _contexts_grammar(
    scope: Grammar,
    root: Nonterminal,
    labeled: Nonterminal,
    others: list[Nonterminal],
) -> Grammar:
    """The scope grammar with every rhs occurrence of ``labeled`` replaced
    by the fresh terminal MARKER (the paper's ``R_t`` construction), and
    every other maximal labeled nonterminal replaced by NEUTRAL."""
    result = Grammar(root)
    marker = Lit(quotes.MARKER)
    neutral = Lit(NEUTRAL)
    replaced_nts = {labeled} | {nt for nt in others if nt is not labeled}

    def replacement(symbol):
        if symbol is labeled:
            return marker
        if isinstance(symbol, Nonterminal) and symbol in replaced_nts:
            return neutral
        return symbol

    # canonical order, not dict order: the verdict cache replays results
    # across structurally identical scopes, so everything downstream of
    # this construction (sampling order in _example_query in particular)
    # must be a function of the canonical structure alone
    for nt in scope.canonical_order(root):
        rules = scope.productions.get(nt, ())
        if nt in replaced_nts:
            # severed: the context language treats these purely as markers
            result.productions.setdefault(nt, [])
            continue
        for rhs in rules:
            result.add(nt, tuple(replacement(symbol) for symbol in rhs))
        result.productions.setdefault(nt, [])
    if root is labeled:
        result.add(root, (marker,))
    elif root in replaced_nts:
        result.add(root, (neutral,))
    return result


def _example_query(
    scope: Grammar,
    root: Nonterminal,
    labeled: Nonterminal,
    others: list[Nonterminal],
    witness: str,
) -> str:
    """A full query string with the witness substring spliced into one of
    its contexts — the "here is the attack" line of the bug report."""
    context = _contexts_grammar(scope, root, labeled, others)
    samples = [
        sample for sample in context.shortest_strings(root, limit=6)
        if len(sample) <= 300
    ]
    for sample in samples:
        if quotes.MARKER in sample:
            return sample.replace(quotes.MARKER, witness).replace(NEUTRAL, "data")
    # The six shortest contexts can all skip the marker (it sits in an
    # optional part of the query) or run past 300 characters.
    # Rather than an empty example, show a marker-free query with the
    # witness appended — still a string the report reader can act on.
    if samples:
        return samples[0].replace(NEUTRAL, "data") + witness
    return witness


def _witness(scope: Grammar, labeled: Nonterminal, dfa) -> str:
    refined, start = intersect(scope, labeled, dfa)
    samples = refined.shortest_strings(start, limit=1)
    return samples[0] if samples else ""


def _nonempty(scope: Grammar, labeled: Nonterminal) -> bool:
    return labeled in scope.trim(labeled).productive()
