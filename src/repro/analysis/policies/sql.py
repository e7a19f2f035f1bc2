"""The SQL-confinement policy (paper §3.2), ported onto the interface.

An ordinary :class:`SinkPolicy`: its per-substring check is the C1–C5
cascade of :mod:`repro.analysis.policy`, plus the example query of an
unsafe finding.  It keeps the empty verdict-cache namespace and the
empty ``policy`` field on its findings, so findings, memo keys, JSON,
and SARIF all match the pre-refactor output exactly (pinned by the
golden regression test).
"""

from __future__ import annotations

from .. import sources
from ..policy import _example_query, check_nonterminal
from ..sarif import RULES
from .base import SinkPolicy


class SqlPolicy(SinkPolicy):
    id = "sql"
    title = "SQL command injection"
    functions = dict(sources.QUERY_FUNCTIONS)
    methods = frozenset(sources.QUERY_METHOD_NAMES)
    rules = RULES
    #: SQL verdicts keep the unprefixed memo keys they always had
    namespace = ""

    def check_labeled(self, scope, root, labeled, hotspot, others):
        finding = check_nonterminal(scope, root, labeled, hotspot, others=others)
        if not finding.safe and finding.witness:
            finding.example_query = _example_query(
                scope, root, labeled, others, finding.witness
            )
        return [finding]

    def warm(self) -> None:
        from .. import quotes

        quotes.odd_unescaped_quotes()
        quotes.has_unescaped_quote()
        quotes.markers_outside_string_literals()
        quotes.non_numeric_literals()
        quotes.non_confinable_substrings()
