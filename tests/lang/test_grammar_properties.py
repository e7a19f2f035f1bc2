"""Property-based tests for grammar transformations on random grammars."""

from hypothesis import given, settings, strategies as st

from repro.lang.charset import CharSet
from repro.lang.grammar import Grammar, Lit

from .reference import ref_generates


@st.composite
def random_grammar(draw):
    """A small random grammar over {a, b} with 2–4 nonterminals.

    Rules are built so the start symbol is always productive: every
    nonterminal gets at least one all-terminal production.
    """
    nt_count = draw(st.integers(2, 4))
    g = Grammar()
    nts = [g.fresh(f"N{i}") for i in range(nt_count)]
    g.start = nts[0]
    leaf = st.one_of(
        st.sampled_from([Lit("a"), Lit("b"), Lit("ab")]),
        st.just(CharSet.of("ab")),
    )
    for nt in nts:
        terminal_rhs = tuple(draw(st.lists(leaf, max_size=2)))
        g.add(nt, terminal_rhs)
        extra_count = draw(st.integers(0, 2))
        for _ in range(extra_count):
            symbols = draw(
                st.lists(
                    st.one_of(leaf, st.sampled_from(nts)),
                    min_size=1,
                    max_size=3,
                )
            )
            g.add(nt, tuple(symbols))
    return g


def short_strings():
    return st.text(alphabet="ab", max_size=5)


class TestTransformations:
    @given(random_grammar(), short_strings())
    @settings(max_examples=60, deadline=None)
    def test_normalized_preserves_language(self, g, text):
        normal = g.normalized(g.start)
        assert ref_generates(g, g.start, text) == ref_generates(normal, g.start, text)

    @given(random_grammar(), short_strings())
    @settings(max_examples=60, deadline=None)
    def test_trim_preserves_language(self, g, text):
        trimmed = g.trim(g.start)
        assert ref_generates(g, g.start, text) == ref_generates(trimmed, g.start, text)

    @given(random_grammar(), short_strings())
    @settings(max_examples=60, deadline=None)
    def test_subgrammar_same_language_at_root(self, g, text):
        sub = g.subgrammar(g.start)
        assert ref_generates(g, g.start, text) == ref_generates(sub, g.start, text)

    @given(random_grammar())
    @settings(max_examples=60, deadline=None)
    def test_samples_are_members(self, g):
        for sample in g.shortest_strings(g.start, limit=5):
            assert ref_generates(g, g.start, sample), sample

    @given(random_grammar())
    @settings(max_examples=40, deadline=None)
    def test_enumerate_finite_exact(self, g):
        strings = g.enumerate_finite(g.start, max_strings=32, max_len=20)
        if strings is None:
            return  # infinite or too large — nothing to assert
        for text in strings:
            assert ref_generates(g, g.start, text)
        # and nothing short is missing
        for text in ("", "a", "b", "ab", "ba", "aa"):
            if ref_generates(g, g.start, text):
                assert text in strings

    @given(random_grammar())
    @settings(max_examples=40, deadline=None)
    def test_charset_closure_covers_samples(self, g):
        closure = g.charset_closure(g.start)
        for sample in g.shortest_strings(g.start, limit=5):
            for char in sample:
                assert char in closure


class TestIntersectionProperties:
    @given(random_grammar(), short_strings())
    @settings(max_examples=40, deadline=None)
    def test_intersection_with_sigma_star(self, g, text):
        """L ∩ Σ* = L."""
        from repro.lang.fsa import NFA
        from repro.lang.intersect import intersect

        dfa = NFA.any_string().determinize()
        result, start = intersect(g, g.start, dfa)
        assert ref_generates(result, start, text) == ref_generates(g, g.start, text)

    @given(random_grammar())
    @settings(max_examples=40, deadline=None)
    def test_intersection_with_empty_is_empty(self, g):
        from repro.lang.fsa import NFA
        from repro.lang.intersect import intersection_is_empty

        dfa = NFA.nothing().determinize()
        assert intersection_is_empty(g, g.start, dfa)

    @given(random_grammar(), short_strings())
    @settings(max_examples=40, deadline=None)
    def test_image_under_identity(self, g, text):
        from repro.lang.fst import FST
        from repro.lang.image import fst_image

        result, start = fst_image(g, g.start, FST.identity())
        assert ref_generates(result, start, text) == ref_generates(g, g.start, text)
