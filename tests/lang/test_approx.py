"""Tests for the Mohri–Nederhof regular approximation (paper's [21])."""

from hypothesis import given, settings, strategies as st

from repro.lang.approx import (
    is_strongly_regular,
    mohri_nederhof,
    regular_approximation,
    strongly_regular_to_nfa,
)
from repro.lang.charset import DIGITS
from repro.lang.grammar import DIRECT, Grammar, Lit

from .reference import ref_generates


def balanced():
    """S → (S) | x — the canonical non-regular grammar."""
    g = Grammar()
    s = g.fresh("S")
    g.start = s
    g.add(s, (Lit("("), s, Lit(")")))
    g.add(s, (Lit("x"),))
    return g, s


def right_linear():
    """A → aA | b — already strongly regular."""
    g = Grammar()
    a = g.fresh("A")
    g.start = a
    g.add(a, (Lit("a"), a))
    g.add(a, (Lit("b"),))
    return g, a


class TestClassification:
    def test_right_linear_is_strongly_regular(self):
        g, a = right_linear()
        assert is_strongly_regular(g, a)

    def test_center_recursion_is_not(self):
        g, s = balanced()
        assert not is_strongly_regular(g, s)

    def test_acyclic_is_strongly_regular(self):
        g = Grammar()
        s, t = g.fresh("S"), g.fresh("T")
        g.add(s, (t, t))
        g.add(t, (Lit("x"),))
        assert is_strongly_regular(g, s)

    def test_left_linear_cycle_is_not_right_linear(self):
        g = Grammar()
        a = g.fresh("A")
        g.add(a, (a, Lit("x")))
        g.add(a, ())
        assert not is_strongly_regular(g, a)


class TestTransformation:
    def test_result_is_strongly_regular(self):
        g, s = balanced()
        approx, root = mohri_nederhof(g, s)
        assert is_strongly_regular(approx, root)

    def test_superset_of_original(self):
        g, s = balanced()
        approx, root = mohri_nederhof(g, s)
        for text in ("x", "(x)", "((x))"):
            assert ref_generates(g, s, text)
            assert ref_generates(approx, root, text)

    def test_contains_unbalanced_strings(self):
        """The approximation price: parenthesis counting is lost."""
        g, s = balanced()
        approx, root = mohri_nederhof(g, s)
        assert not ref_generates(g, s, "(x")
        assert ref_generates(approx, root, "(x")

    def test_preserves_literal_structure(self):
        """Unlike charset-closure widening, MN keeps fixed prefixes."""
        g = Grammar()
        q, cond = g.fresh("Q"), g.fresh("C")
        g.add(q, (Lit("SELECT a FROM t WHERE "), cond))
        g.add(cond, (Lit("x=1"),))
        g.add(cond, (cond, Lit(" AND x=1")))  # left recursion
        approx, root = mohri_nederhof(g, q)
        assert ref_generates(approx, root, "SELECT a FROM t WHERE x=1")
        assert ref_generates(approx, root, "SELECT a FROM t WHERE x=1 AND x=1")
        # closure widening would accept this; MN must not:
        assert not ref_generates(approx, root, "WHERE SELECT x=1")

    def test_strongly_regular_unchanged_language(self):
        g, a = right_linear()
        approx, root = mohri_nederhof(g, a)
        for text in ("b", "ab", "aab", "a", ""):
            assert ref_generates(g, a, text) == ref_generates(approx, root, text)

    def test_labels_preserved(self):
        g, s = balanced()
        g.add_label(s, DIRECT)
        approx, root = mohri_nederhof(g, s)
        assert approx.has_label(root, DIRECT)


class TestToNfa:
    def test_right_linear_exact(self):
        g, a = right_linear()
        nfa = strongly_regular_to_nfa(g, a)
        for text in ("b", "ab", "aaab"):
            assert nfa.accepts_string(text)
        for text in ("", "a", "ba"):
            assert not nfa.accepts_string(text)

    def test_acyclic_exact(self):
        g = Grammar()
        s, t = g.fresh("S"), g.fresh("T")
        g.add(s, (Lit("<"), t, Lit(">")))
        g.add(t, (DIGITS,))
        g.add(t, (Lit("id"),))
        nfa = strongly_regular_to_nfa(g, s)
        assert nfa.accepts_string("<7>")
        assert nfa.accepts_string("<id>")
        assert not nfa.accepts_string("<77>")

    def test_mutual_right_linear_cycle(self):
        g = Grammar()
        a, b = g.fresh("A"), g.fresh("B")
        g.add(a, (Lit("x"), b))
        g.add(b, (Lit("y"), a))
        g.add(b, ())
        nfa = strongly_regular_to_nfa(g, a)
        for text in ("x", "xyx", "xyxyx"):
            assert nfa.accepts_string(text)
        assert not nfa.accepts_string("xy")

    def test_charset_symbols(self):
        g = Grammar()
        a = g.fresh("A")
        g.add(a, (DIGITS, a))
        g.add(a, ())
        nfa = strongly_regular_to_nfa(g, a)
        assert nfa.accepts_string("123")
        assert nfa.accepts_string("")
        assert not nfa.accepts_string("12a")


class TestEndToEnd:
    def test_regular_approximation_of_cfg(self):
        g, s = balanced()
        nfa = regular_approximation(g, s)
        assert nfa.accepts_string("(x)")
        assert nfa.accepts_string("((x))")
        # superset: some unbalanced strings appear
        assert nfa.accepts_string("(x")
        # but the alphabet/structure constraint holds
        assert not nfa.accepts_string("yyy")

    @given(st.text(alphabet="ab", max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_superset_property(self, text):
        """L(G) ⊆ L(approx(G)) on the palindrome-ish grammar."""
        g = Grammar()
        s = g.fresh("S")
        g.add(s, (Lit("a"), s, Lit("a")))
        g.add(s, (Lit("b"),))
        nfa = regular_approximation(g, s)
        if ref_generates(g, s, text):
            assert nfa.accepts_string(text)
