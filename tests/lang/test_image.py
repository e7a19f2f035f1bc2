"""Tests for the CFG-image-over-FST construction with taint propagation."""

from hypothesis import given, settings, strategies as st

from repro.lang.charset import CharSet, DIGITS
from repro.lang.fst import FST
from repro.lang.grammar import DIRECT, Grammar, Lit
from repro.lang.image import fst_image, regular_image

from .reference import ref_generates


def literal_grammar(*texts):
    g = Grammar()
    s = g.fresh("S")
    g.start = s
    for text in texts:
        g.add(s, (Lit(text),))
    return g, s


class TestLiteralImages:
    def test_identity(self):
        g, s = literal_grammar("hello")
        result, start = fst_image(g, s, FST.identity())
        assert ref_generates(result, start, "hello")
        assert not ref_generates(result, start, "world")

    def test_addslashes_image(self):
        g, s = literal_grammar("a'b")
        fst = FST.escape_chars(CharSet.of("'\"\\"))
        result, start = fst_image(g, s, fst)
        assert ref_generates(result, start, "a\\'b")
        assert not ref_generates(result, start, "a'b")

    def test_figure6_collapse_quotes(self):
        g, s = literal_grammar("''", "'", "x''y")
        fst = FST.replace_string("''", "'")
        result, start = fst_image(g, s, fst)
        assert ref_generates(result, start, "'")      # from "''"
        assert ref_generates(result, start, "x'y")    # from "x''y"
        assert not ref_generates(result, start, "''")

    def test_final_flush_appears(self):
        """A trailing partial match must be emitted (final_output path)."""
        g, s = literal_grammar("za")
        fst = FST.replace_string("ab", "X")
        result, start = fst_image(g, s, fst)
        assert ref_generates(result, start, "za")

    def test_alternatives(self):
        g, s = literal_grammar("cat", "dog")
        result, start = fst_image(g, s, FST.uppercase())
        assert ref_generates(result, start, "CAT")
        assert ref_generates(result, start, "DOG")
        assert not ref_generates(result, start, "cat")


class TestCharsetImages:
    def test_charset_copied(self):
        g = Grammar()
        s = g.fresh("S")
        g.add(s, (DIGITS,))
        result, start = fst_image(g, s, FST.identity())
        assert ref_generates(result, start, "7")
        assert not ref_generates(result, start, "a")

    def test_charset_lowered(self):
        g = Grammar()
        s = g.fresh("S")
        g.add(s, (CharSet.range("A", "Z"),))
        result, start = fst_image(g, s, FST.lowercase())
        assert ref_generates(result, start, "q")
        assert not ref_generates(result, start, "Q")

    def test_charset_escaped(self):
        g = Grammar()
        s = g.fresh("S")
        g.add(s, (CharSet.any_char(),))
        fst = FST.escape_chars(CharSet.of("'"))
        result, start = fst_image(g, s, fst)
        assert ref_generates(result, start, "\\'")
        assert ref_generates(result, start, "a")
        assert not ref_generates(result, start, "'")


class TestCyclicGrammars:
    def test_star_grammar_image(self):
        """The image construction handles cyclic grammars exactly."""
        g = Grammar()
        s = g.fresh("S")
        g.add(s, ())
        g.add(s, (Lit("a'"), s))
        fst = FST.escape_chars(CharSet.of("'"))
        result, start = fst_image(g, s, fst)
        assert ref_generates(result, start, "")
        assert ref_generates(result, start, "a\\'")
        assert ref_generates(result, start, "a\\'a\\'")
        assert not ref_generates(result, start, "a'")

    def test_nested_grammar_image(self):
        g = Grammar()
        s = g.fresh("S")
        g.add(s, (Lit("("), s, Lit(")")))
        g.add(s, (Lit("'"),))
        fst = FST.replace_chars(CharSet.of("'"), "X")
        result, start = fst_image(g, s, fst)
        assert ref_generates(result, start, "((X))")
        assert not ref_generates(result, start, "(('))")


class TestTaintPropagation:
    def test_labels_survive_image(self):
        g = Grammar()
        s, x = g.fresh("S"), g.fresh("X")
        g.add(s, (Lit("a"), x))
        g.add(x, (Lit("'"),))
        g.add_label(x, DIRECT)
        fst = FST.escape_chars(CharSet.of("'"))
        result, start = fst_image(g, s, fst)
        tainted = result.labeled_nonterminals(DIRECT)
        assert tainted
        assert any(ref_generates(result, nt, "\\'") for nt in tainted)

    def test_root_labels_on_start(self):
        g = Grammar()
        x = g.fresh("X")
        g.add(x, (Lit("v"),))
        g.add_label(x, DIRECT)
        result, start = fst_image(g, x, FST.identity())
        assert result.has_label(start, DIRECT)


class TestRegularImage:
    def test_sigma_star_escaped(self):
        result, start = regular_image(CharSet.of("a'"), FST.escape_chars(CharSet.of("'")))
        assert ref_generates(result, start, "")
        assert ref_generates(result, start, "a\\'a")
        assert not ref_generates(result, start, "'")

    def test_collapse_class_widening(self):
        result, start = regular_image(
            CharSet.of("ab1"), FST.collapse_class(DIGITS, "#")
        )
        assert ref_generates(result, start, "ab#")
        assert ref_generates(result, start, "#a#")
        assert not ref_generates(result, start, "1")


class TestDifferentialAgainstDirectApplication:
    """fst_image of a finite language == applying the FST to each string."""

    FSTS = [
        ("identity", FST.identity()),
        ("addslashes", FST.escape_chars(CharSet.of("'\"\\"))),
        ("collapse_quotes", FST.replace_string("''", "'")),
        ("strip_digits", FST.delete_chars(DIGITS)),
        ("upper", FST.uppercase()),
        ("collapse_ws", FST.collapse_class(CharSet.of(" \t"), " ")),
    ]

    @given(
        st.sampled_from(range(len(FSTS))),
        st.lists(st.text(alphabet="ab'\\1 \t", max_size=6), min_size=1, max_size=3),
    )
    @settings(max_examples=120, deadline=None)
    def test_image_equals_pointwise_application(self, fst_idx, texts):
        _, fst = self.FSTS[fst_idx]
        g, s = literal_grammar(*texts)
        result, start = fst_image(g, s, fst)
        for text in texts:
            for output in fst.apply_to_string(text):
                assert ref_generates(result, start, output), (text, output)
