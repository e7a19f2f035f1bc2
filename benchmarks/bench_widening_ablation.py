"""Ablation: charset-closure vs. Mohri–Nederhof widening.

Widening trades precision for size.  The closure bound collapses a value
to ``closure*`` — constant size, but it forgets every literal skeleton,
so a widened-then-checked query loses its quote structure and gets
reported.  The Mohri–Nederhof approximation ([21]) keeps the skeleton at
roughly original size.  This bench measures both on the same loop-built
query value and asserts the precision difference.
"""

from functools import partial

import pytest

from repro.analysis.absdom import GrammarBuilder
from repro.lang.earley import char_membership, char_token_grammar
from repro.lang.grammar import Lit


def loop_built_query(builder: GrammarBuilder):
    """Q → "SELECT … WHERE " C;  C → C " AND x='v'" | "x='v'"
    (a WHERE clause grown in a loop — center/left recursive)."""
    g = builder.grammar
    cond = builder.fresh("cond")
    g.add(cond, (Lit("x='v'"),))
    g.add(cond, (cond, Lit(" AND x='v'")))
    query = builder.fresh("query")
    g.add(query, (Lit("SELECT a FROM t WHERE "), cond))
    return query


@pytest.mark.parametrize("strategy", ["closure", "mohri-nederhof"])
def test_widening_strategy(benchmark, strategy):
    def run():
        builder = GrammarBuilder(widen_strategy=strategy)
        from repro.analysis.values import StrVal

        query = StrVal(loop_built_query(builder))
        widened = builder.widen(query)
        return builder, widened

    builder, widened = benchmark(run)
    member = partial(
        char_membership, char_token_grammar(builder.grammar, widened.nt)
    )
    # both strategies over-approximate: the true strings remain
    assert member("SELECT a FROM t WHERE x='v'")
    garbage = "WHERE'SELECT x"
    if strategy == "closure":
        # closure forgets the skeleton: arbitrary rearrangements appear
        assert member(garbage)
    else:
        # Mohri–Nederhof keeps it: the literal skeleton survives
        assert not member(garbage)


def test_precision_consequence_for_policy(tmp_path):
    """After closure widening the quote structure is gone (the policy
    would have to report); after MN widening it survives verification."""
    from repro.analysis import quotes
    from repro.analysis.values import StrVal
    from repro.lang.intersect import intersection_is_empty

    verdicts = {}
    for strategy in ("closure", "mohri-nederhof"):
        builder = GrammarBuilder(widen_strategy=strategy)
        query = StrVal(loop_built_query(builder))
        widened = builder.widen(query)
        scope = builder.grammar.subgrammar(widened.nt)
        odd_free = intersection_is_empty(
            scope, widened.nt, quotes.odd_unescaped_quotes()
        )
        verdicts[strategy] = odd_free
    assert not verdicts["closure"]          # closure: odd-quote strings appear
    assert verdicts["mohri-nederhof"]       # MN: quote pairing survives
