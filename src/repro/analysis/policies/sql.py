"""The SQL-confinement policy (paper §3.2), ported onto the interface.

This is a *byte-identical* port: :meth:`SqlPolicy.check` delegates to
the original C1–C5 cascade in :mod:`repro.analysis.policy` with no
cascade override and no cache namespace, so findings, memo keys, JSON,
and SARIF all match the pre-refactor output exactly (pinned by the
golden regression test).
"""

from __future__ import annotations

from .. import sources
from ..policy import check_hotspot
from ..sarif import RULES
from .base import SinkPolicy


class SqlPolicy(SinkPolicy):
    id = "sql"
    title = "SQL command injection"
    functions = dict(sources.QUERY_FUNCTIONS)
    methods = frozenset(sources.QUERY_METHOD_NAMES)
    rules = RULES

    def check(self, grammar, hotspot, cache=None):
        return check_hotspot(grammar, hotspot, cache=cache)

    def warm(self) -> None:
        from .. import quotes

        quotes.odd_unescaped_quotes()
        quotes.has_unescaped_quote()
        quotes.markers_outside_string_literals()
        quotes.non_numeric_literals()
        quotes.non_confinable_substrings()
