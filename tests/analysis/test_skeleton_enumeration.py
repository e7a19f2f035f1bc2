"""Exactness and memory of the xss-context skeleton enumeration.

``enumerate_skeletons`` keeps each stack entry's prefix and pending
symbols as shared-tail chains instead of copying them on every push.
These tests pin that the change is invisible: ``(strings, complete)``
equals that of the copying walk, kept below as the reference, on random
recursive grammars and with each of the three bounds forced to fire.
"""

import tracemalloc
from unittest import mock

from hypothesis import given, settings, strategies as st

from repro.analysis.policies import xss_context
from repro.analysis.policies.xss_context import enumerate_skeletons
from repro.analysis.policy import NEUTRAL
from repro.analysis.quotes import MARKER
from repro.lang.charset import CharSet
from repro.lang.grammar import Grammar, Lit, Nonterminal


def reference_enumerate(grammar, root, max_steps, max_skeletons, max_len):
    """The enumeration that copies prefix and pending symbols per push."""
    results: list[str] = []
    complete = True
    stack: list[tuple[str, tuple]] = [("", (root,))]
    steps = 0
    while stack:
        steps += 1
        if steps > max_steps or len(results) > max_skeletons:
            return results, False
        prefix, symbols = stack.pop()
        if len(prefix) > max_len:
            complete = False
            continue
        if not symbols:
            results.append(prefix)
            continue
        head, rest = symbols[0], symbols[1:]
        if isinstance(head, Lit):
            stack.append((prefix + head.text, rest))
        elif isinstance(head, Nonterminal):
            rules = grammar.productions.get(head, ())
            if not rules:
                continue
            for rhs in rules:
                stack.append((prefix, tuple(rhs) + rest))
        elif isinstance(head, CharSet):
            complete = False
            stack.append((prefix + NEUTRAL, rest))
        else:
            complete = False
            stack.append((prefix, rest))
    return results, complete


def enumerate_with_bounds(grammar, root, max_steps, max_skeletons, max_len):
    with mock.patch.multiple(
        xss_context,
        MAX_STEPS=max_steps,
        MAX_SKELETONS=max_skeletons,
        MAX_SKELETON_LEN=max_len,
    ):
        return enumerate_skeletons(grammar, root)


def check(grammar, root, max_steps, max_skeletons, max_len):
    expected = reference_enumerate(
        grammar, root, max_steps, max_skeletons, max_len
    )
    assert (
        enumerate_with_bounds(grammar, root, max_steps, max_skeletons, max_len)
        == expected
    )
    return expected


@st.composite
def recursive_grammar(draw):
    """Random grammars with recursive nonterminals, literals (the empty
    one included), character classes and severed nonterminals (no rules
    at all: a dead derivation)."""
    g = Grammar()
    nts = [g.fresh(f"N{i}") for i in range(draw(st.integers(2, 5)))]
    severed = g.fresh("dead")
    leaf = st.sampled_from(
        [Lit("a"), Lit("<td>"), Lit(""), Lit(""), CharSet.of("xy")]
    )
    symbol = st.one_of(leaf, st.sampled_from(nts + [severed]))
    for nt in nts:
        for _ in range(draw(st.integers(0, 3))):
            rhs = tuple(draw(st.lists(symbol, max_size=4)))
            # straight into the rule list: Grammar.add would drop Lit("")
            g.productions[nt].append(rhs)
    return g, nts[0]


class TestExactness:
    @given(
        recursive_grammar(),
        st.sampled_from([1, 7, 60, 600]),
        st.sampled_from([0, 2, 64]),
        st.sampled_from([0, 5, 4096]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_copying_walk(self, drawn, steps, skeletons, length):
        grammar, root = drawn
        check(grammar, root, steps, skeletons, length)

    def test_step_bound(self):
        g = Grammar()
        n = g.fresh("N")
        g.add(n, (Lit("a"), n))
        assert check(g, n, 50, 64, 4096) == ([], False)

    def test_skeleton_bound(self):
        g = Grammar()
        n = g.fresh("N")
        g.add(n, (Lit("a"),))
        g.add(n, (Lit("b"), n))
        strings, complete = check(g, n, 20000, 3, 4096)
        assert len(strings) == 4 and not complete

    def test_length_bound(self):
        g = Grammar()
        n = g.fresh("N")
        g.add(n, ())
        g.add(n, (Lit("ab"), n))
        strings, complete = check(g, n, 20000, 64, 5)
        assert strings == ["abab", "ab", ""] and not complete

    def test_charset_marks_incomplete(self):
        g = Grammar()
        n = g.fresh("N")
        g.add(n, (Lit("<a href='"), CharSet.of("xy"), Lit("'>")))
        assert check(g, n, 20000, 64, 4096) == (
            [f"<a href='{NEUTRAL}'>"], False
        )


def warp_rows_grammar():
    """The context grammar of warp_cms's table-rows echo: a loop that
    appends ``<td>…</td>`` to ``<tr>`` on every pass, i.e. the left
    recursion ``L → <tr> | A``, ``A → L <td> M </td>`` under the root
    ``L </tr>``.  The recursive rule is listed last, so it is popped
    first and every expansion pushes a longer pending-symbol sequence
    without ever finishing a skeleton."""
    g = Grammar()
    root = g.fresh("cat")
    loop = g.fresh("loop.out")
    again = g.fresh("cat")
    row = g.fresh("cat")
    cell = g.fresh("cat")
    value = g.fresh("htmlspecial")
    g.add(root, (loop, Lit("</tr>")))
    g.add(loop, (Lit("<tr>"),))
    g.add(loop, (again,))
    g.add(again, (loop, row))
    g.add(row, (cell, Lit("</td>")))
    g.add(cell, (Lit("<td>"), value))
    g.add(value, (Lit(MARKER),))
    return g, root


class TestMemory:
    def test_warp_rows_grammar_stays_small(self):
        g, root = warp_rows_grammar()
        tracemalloc.start()
        try:
            strings, complete = enumerate_skeletons(g, root)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the step budget runs out before any skeleton completes
        assert (strings, complete) == ([], False)
        assert peak < 16 * 1024 * 1024

    def test_warp_rows_grammar_matches_reference_at_small_budget(self):
        g, root = warp_rows_grammar()
        for steps in (10, 101, 2000):
            check(g, root, steps, 64, 4096)
