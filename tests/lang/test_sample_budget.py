"""Exactness of the step-budget cut in ``Grammar.sample_strings``.

The sampler stops building new sentential forms once an entry pushed
now could only be popped after the 20000-step budget is spent.  These
tests pin that the cut is invisible: the samples equal those of the
uncut breadth-first walk, kept below as the reference.
"""

from collections import deque

from hypothesis import given, settings, strategies as st

from repro.lang.charset import CharSet
from repro.lang.grammar import Grammar, Lit
from repro.obs.metrics import PERF


def reference_sample_strings(grammar, root, limit, max_len):
    """The sampling walk without the budget cut (and without memos)."""
    results: list[str] = []
    seen_forms: set[tuple] = set()
    seen_add = seen_forms.add
    conv_cache: dict[int, tuple] = {}
    queue: deque[tuple[tuple, int]] = deque([((root,), 0)])
    pop = queue.popleft
    push = queue.append
    productions = grammar.productions
    steps = 0
    seen_count = 0
    while queue and len(results) < limit and steps < 20000:
        steps += 1
        form, scan = pop()
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
        symbol = form[idx]
        if type(symbol) is CharSet:
            choices = {symbol.sample_char()}
            if "'" in symbol:
                choices.add("'")
            if "-" in symbol:
                choices.add("-")
            for char in sorted(choices):
                expanded = form[:idx] + (char,) + form[idx + 1 :]
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
                conv = tuple(s.text if type(s) is Lit else s for s in rhs)
                conv_cache[id(rhs)] = conv
            expanded = prefix + conv + suffix
            if len(expanded) <= 40:
                seen_add(expanded)
                if len(seen_forms) != seen_count:
                    seen_count += 1
                    push((expanded, idx))
    return results


def budget_cuts() -> int:
    return PERF.snapshot()["counters"].get("samples.budget_cuts", 0)


@st.composite
def branching_grammar(draw):
    """A random grammar whose recursive nonterminals branch on charsets
    holding ``'`` and ``-`` (three sample choices each), so the frontier
    grows fast and some walks run out of steps before finishing."""
    nt_count = draw(st.integers(2, 4))
    g = Grammar()
    nts = [g.fresh(f"N{i}") for i in range(nt_count)]
    g.start = nts[0]
    leaf = st.one_of(
        st.sampled_from([Lit("a"), Lit("'"), Lit("xy")]),
        st.sampled_from(
            [CharSet.of("ab'-"), CharSet.of("a-"), CharSet.range("0", "9")]
        ),
    )
    for index, nt in enumerate(nts):
        # the last nonterminal always terminates; the others may only
        # finish through deeper nonterminals, which delays completed forms
        if index == nt_count - 1 or draw(st.booleans()):
            g.add(nt, tuple(draw(st.lists(leaf, max_size=2))))
        for _ in range(draw(st.integers(1, 3))):
            symbols = draw(
                st.lists(
                    st.one_of(leaf, st.sampled_from(nts[index:])),
                    min_size=1,
                    max_size=4,
                )
            )
            g.add(nt, tuple(symbols))
    return g


class TestBudgetCut:
    @given(branching_grammar())
    @settings(max_examples=25, deadline=None)
    def test_matches_uncut_walk(self, g):
        for limit in (1, 3, 8):
            for max_len in (3, 12, 200):
                expected = reference_sample_strings(g, g.start, limit, max_len)
                fresh = g.subgrammar(g.start)  # no memoized samples
                assert (
                    fresh.sample_strings(g.start, limit=limit, max_len=max_len)
                    == expected
                )

    def test_budget_exhausting_grammar_is_generated(self):
        """The strategy above does reach the budget (guards the property
        against silently testing only the easy walks)."""
        g = Grammar()
        n = g.fresh("N")
        g.start = n
        g.add(n, (CharSet.of("ab'-"), n, n))
        g.add(n, (Lit("a"), n))
        before = budget_cuts()
        assert g.sample_strings(n, limit=3) == reference_sample_strings(
            g, n, 3, 200
        )
        assert budget_cuts() == before + 1

    def test_warp_update_query_returns_nothing(self):
        """The shape of warp_cms's save-page query: two SQL-escaped text
        fields, a lower-cased slug and an ``intval`` id, each behind the
        chain of unit productions the abstract interpreter leaves (one
        per assignment and phi node).  The early fields' stars multiply
        the frontier at every level, so the budget runs out long before
        the walk is deep enough to finish a form."""
        g = Grammar()
        query = g.fresh("query")
        g.start = query

        def chain(target, depth=12):
            for _ in range(depth):
                step = g.fresh("phi")
                g.add(step, (target,))
                target = step
            return target

        def star(cls):
            nt = g.fresh("star")
            g.add(nt, ())
            g.add(nt, (cls, nt))
            return nt

        escaped = g.fresh("cls")
        for text in ("\\0", "\\n", "\\r", "\\Z"):
            g.add(escaped, (Lit(text),))
        g.add(escaped, (Lit("\\"), CharSet.of("\"'\\")))
        g.add(escaped, (CharSet.of("\x00\n\r\x1a\"'\\").complement(),))
        lowered = g.fresh("cls")
        g.add(lowered, ())
        g.add(lowered, (CharSet.union_of(
            [CharSet.range("a", "z"), CharSet.range("0", "9"), CharSet.of("_")]
        ),))
        digits = g.fresh("digits")
        more = g.fresh("digits")
        digit = CharSet.range("0", "9")
        g.add(digits, (CharSet.of("-"), digit, more))
        g.add(digits, (digit, more))
        g.add(more, ())
        g.add(more, (digit, more))
        g.add(
            query,
            (
                Lit("UPDATE `warp_blocks` SET title='"), chain(star(escaped)),
                Lit("', body='"), chain(star(escaped)),
                Lit("', slug='"), chain(star(lowered)),
                Lit("' WHERE id="), chain(digits),
            ),
        )
        assert reference_sample_strings(g, query, 3, 200) == []
        before = budget_cuts()
        assert g.sample_strings(query, limit=3) == []
        assert budget_cuts() == before + 1

    def test_sample_popped_at_the_last_step_is_kept(self):
        """Seven unit chains side by side: each BFS level pops one form
        per chain, so the one completed form, ``ok`` at the end of the
        last chain, is popped at step 1 + 7 * (depth + 1).  At depth 2856
        that is the 20000th and last step (its entry is the last one the
        cut may still push); one level deeper it falls off the budget."""

        def chains(depth):
            g = Grammar()
            root = g.fresh("R")
            g.start = root
            for index in range(7):
                nt = g.fresh("c")
                g.add(root, (nt,))
                for _ in range(depth - 1):
                    step = g.fresh("c")
                    g.add(nt, (step,))
                    nt = step
                # six chains end in a nonterminal without productions
                g.add(nt, (Lit("ok"),) if index == 6 else (g.fresh("dead"),))
            return g

        for depth, expected in ((2856, ["ok"]), (2857, [])):
            g = chains(depth)
            assert reference_sample_strings(g, g.start, 3, 200) == expected
            assert g.sample_strings(g.start, limit=3) == expected

    def test_short_walk_is_not_cut(self):
        g = Grammar()
        n = g.fresh("N")
        g.start = n
        g.add(n, (Lit("a"),))
        g.add(n, (Lit("b"), n))
        before = budget_cuts()
        assert g.sample_strings(n, limit=3) == ["a", "ba", "bba"]
        assert budget_cuts() == before
