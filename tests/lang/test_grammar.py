"""Tests for the taint-labeled CFG representation."""


from repro.lang.charset import CharSet, DIGITS
from repro.lang.grammar import DIRECT, Grammar, INDIRECT, Lit

from .reference import ref_generates


def balanced_grammar():
    """S -> ( S ) | ε — the classic non-regular language."""
    g = Grammar()
    s = g.fresh("S")
    g.start = s
    g.add(s, (Lit("("), s, Lit(")")))
    g.add(s, ())
    return g, s


class TestBasics:
    def test_fresh_nonterminals_distinct(self):
        g = Grammar()
        a, b = g.fresh("X"), g.fresh("X")
        assert a != b
        assert a.name == b.name == "X"

    def test_add_dedups(self):
        g = Grammar()
        s = g.fresh("S")
        g.add(s, (Lit("a"),))
        g.add(s, (Lit("a"),))
        assert len(g.productions[s]) == 1

    def test_add_drops_empty_lits(self):
        g = Grammar()
        s = g.fresh("S")
        g.add(s, (Lit(""), Lit("a"), Lit("")))
        assert g.productions[s] == [(Lit("a"),)]

    def test_num_productions(self):
        g, _ = balanced_grammar()
        assert g.num_productions() == 2

    def test_repr(self):
        g, _ = balanced_grammar()
        assert "|V|=1" in repr(g)

    def test_dump_readable(self):
        g, s = balanced_grammar()
        g.add_label(s, DIRECT)
        text = g.dump()
        assert "S ->" in text
        assert "direct" in text


class TestLabels:
    def test_add_and_query(self):
        g = Grammar()
        x = g.fresh("X")
        g.add_label(x, DIRECT)
        assert g.has_label(x, DIRECT)
        assert not g.has_label(x, INDIRECT)
        assert g.has_label(x)

    def test_copy_labels_taintif(self):
        g = Grammar()
        x, y = g.fresh("X"), g.fresh("Y")
        g.add_label(x, DIRECT)
        g.add_label(x, INDIRECT)
        g.copy_labels(x, y)
        assert g.has_label(y, DIRECT) and g.has_label(y, INDIRECT)

    def test_labeled_nonterminals(self):
        g = Grammar()
        x, y = g.fresh("X"), g.fresh("Y")
        g.add_label(x, DIRECT)
        g.add_label(y, INDIRECT)
        assert set(g.labeled_nonterminals()) == {x, y}
        assert g.labeled_nonterminals(DIRECT) == [x]


class TestReachability:
    def test_reachable(self):
        g = Grammar()
        s, a, b = g.fresh("S"), g.fresh("A"), g.fresh("B")
        g.start = s
        g.add(s, (a,))
        g.add(b, (Lit("x"),))
        assert g.reachable() == {s, a}

    def test_productive(self):
        g = Grammar()
        s, a, b = g.fresh("S"), g.fresh("A"), g.fresh("B")
        g.add(s, (a,))
        g.add(a, (Lit("x"),))
        g.add(b, (b,))  # b only derives itself: unproductive
        assert g.productive() == {s, a}

    def test_trim(self):
        g = Grammar()
        s, a, dead, unreach = g.fresh("S"), g.fresh("A"), g.fresh("D"), g.fresh("U")
        g.start = s
        g.add(s, (a,))
        g.add(s, (dead,))
        g.add(a, (Lit("x"),))
        g.add(dead, (dead,))
        g.add(unreach, (Lit("y"),))
        trimmed = g.trim()
        assert set(trimmed.productions) == {s, a}
        assert trimmed.num_productions() == 2

    def test_trim_preserves_labels(self):
        g = Grammar()
        s, a = g.fresh("S"), g.fresh("A")
        g.start = s
        g.add(s, (a,))
        g.add(a, (DIGITS,))
        g.add_label(a, DIRECT)
        assert g.trim().has_label(a, DIRECT)

    def test_trim_empty_language(self):
        g = Grammar()
        s = g.fresh("S")
        g.start = s
        g.add(s, (s,))
        trimmed = g.trim()
        assert trimmed.num_productions() == 0

    def test_subgrammar(self):
        g = Grammar()
        s, a, b = g.fresh("S"), g.fresh("A"), g.fresh("B")
        g.start = s
        g.add(s, (a, b))
        g.add(a, (Lit("x"),))
        g.add(b, (Lit("y"),))
        sub = g.subgrammar(a)
        assert set(sub.productions) == {a}
        assert sub.start == a


class TestCycles:
    def test_self_loop(self):
        g = Grammar()
        x = g.fresh("X")
        g.add(x, (Lit("a"), x))
        g.add(x, ())
        assert g.cyclic_nonterminals() == {x}

    def test_mutual_cycle(self):
        g = Grammar()
        x, y, z = g.fresh("X"), g.fresh("Y"), g.fresh("Z")
        g.add(x, (y,))
        g.add(y, (x,))
        g.add(z, (x,))
        assert g.cyclic_nonterminals() == {x, y}

    def test_acyclic(self):
        g = Grammar()
        s, a = g.fresh("S"), g.fresh("A")
        g.add(s, (a, a))
        g.add(a, (Lit("x"),))
        assert g.cyclic_nonterminals() == set()

    def test_diamond_not_cyclic(self):
        g = Grammar()
        s, a, b, c = g.fresh("S"), g.fresh("A"), g.fresh("B"), g.fresh("C")
        g.add(s, (a, b))
        g.add(a, (c,))
        g.add(b, (c,))
        g.add(c, (Lit("x"),))
        assert g.cyclic_nonterminals() == set()


class TestLanguage:
    def test_charset_closure(self):
        g = Grammar()
        s, a = g.fresh("S"), g.fresh("A")
        g.add(s, (Lit("ab"), a))
        g.add(a, (DIGITS,))
        closure = g.charset_closure(s)
        for char in "ab0129":
            assert char in closure
        assert "z" not in closure

    def test_sample_strings(self):
        g, s = balanced_grammar()
        samples = g.shortest_strings(s, limit=4)
        assert "" in samples
        assert "()" in samples
        assert "(())" in samples

    def test_sample_includes_quote_from_charset(self):
        g = Grammar()
        s = g.fresh("S")
        g.add(s, (CharSet.any_char(),))
        samples = g.shortest_strings(s, limit=5)
        assert any("'" in t for t in samples)

    def test_generates_balanced(self):
        g, s = balanced_grammar()
        for text in ("", "()", "(())", "((()))"):
            assert ref_generates(g, s, text)
        for text in ("(", ")", ")(", "(()"):
            assert not ref_generates(g, s, text)

    def test_generates_with_multichar_lit(self):
        g = Grammar()
        s = g.fresh("S")
        g.add(s, (Lit("SELECT "), DIGITS))
        assert ref_generates(g, s, "SELECT 7")
        assert not ref_generates(g, s, "SELECT77")

    def test_generates_cyclic_unit_rules(self):
        g = Grammar()
        x, y = g.fresh("X"), g.fresh("Y")
        g.add(x, (y,))
        g.add(y, (x,))
        g.add(y, (Lit("a"),))
        assert ref_generates(g, x, "a")
        assert not ref_generates(g, x, "b")

    def test_generates_left_recursion(self):
        g = Grammar()
        x = g.fresh("X")
        g.add(x, (x, Lit("a")))
        g.add(x, (Lit("a"),))
        assert ref_generates(g, x, "aaa")
        assert not ref_generates(g, x, "")

    def test_generates_epsilon_chains(self):
        g = Grammar()
        s, e = g.fresh("S"), g.fresh("E")
        g.add(e, ())
        g.add(s, (e, Lit("x"), e))
        assert ref_generates(g, s, "x")
        assert not ref_generates(g, s, "")


class TestNormalize:
    def test_short_rhs_unchanged(self):
        g = Grammar()
        s = g.fresh("S")
        g.add(s, (Lit("a"), Lit("b")))
        normal = g.normalized(s)
        assert normal.productions[s] == [(Lit("a"), Lit("b"))]

    def test_long_rhs_split(self):
        g = Grammar()
        s = g.fresh("S")
        g.add(s, (Lit("a"), Lit("b"), Lit("c"), Lit("d")))
        normal = g.normalized(s)
        assert all(
            len(rhs) <= 2 for rules in normal.productions.values() for rhs in rules
        )
        assert ref_generates(normal, s, "abcd")

    def test_language_preserved(self):
        g = Grammar()
        s, a = g.fresh("S"), g.fresh("A")
        g.add(s, (Lit("x"), a, Lit("y"), a))
        g.add(a, (DIGITS,))
        normal = g.normalized(s)
        assert ref_generates(normal, s, "x1y2")
        assert not ref_generates(normal, s, "x1y")

    def test_labels_preserved(self):
        g = Grammar()
        s, a = g.fresh("S"), g.fresh("A")
        g.add_label(a, DIRECT)
        g.add(s, (a, Lit("b"), a))
        normal = g.normalized(s)
        assert normal.has_label(a, DIRECT)
