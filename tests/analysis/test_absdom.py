"""Tests for the GrammarBuilder abstract domain."""

import pytest

from repro.analysis import absdom
from repro.analysis.absdom import GrammarBuilder
from repro.analysis.analyzer import entry_pages, run_pages
from repro.analysis.values import ArrVal
from repro.corpus import build_app
from repro.lang.charset import CharSet, DIGITS
from repro.lang.fst import FST
from repro.lang.grammar import DIRECT, INDIRECT
from repro.lang.image import fst_image
from repro.lang.regex import parse_regex

from ..lang.reference import ref_generates


class TestConstructors:
    def test_literal(self):
        b = GrammarBuilder()
        v = b.literal("hello")
        assert ref_generates(b.grammar, v.nt, "hello")
        assert not ref_generates(b.grammar, v.nt, "world")

    def test_literal_cached(self):
        b = GrammarBuilder()
        assert b.literal("x").nt is b.literal("x").nt

    def test_empty_literal(self):
        b = GrammarBuilder()
        v = b.literal("")
        assert ref_generates(b.grammar, v.nt, "")

    def test_any_string(self):
        b = GrammarBuilder()
        v = b.any_string()
        for text in ("", "abc", "'; DROP"):
            assert ref_generates(b.grammar, v.nt, text)

    def test_any_string_labeled(self):
        b = GrammarBuilder()
        v = b.any_string(DIRECT)
        assert b.grammar.has_label(v.nt, DIRECT)

    def test_charset_star(self):
        b = GrammarBuilder()
        v = b.charset_star(DIGITS)
        assert ref_generates(b.grammar, v.nt, "123")
        assert not ref_generates(b.grammar, v.nt, "a")

    def test_from_nfa(self):
        from repro.lang.regex import full_match_language

        b = GrammarBuilder()
        v = b.from_nfa(full_match_language(parse_regex("ab*c")))
        assert ref_generates(b.grammar, v.nt, "abbbc")
        assert not ref_generates(b.grammar, v.nt, "ab")


class TestCombination:
    def test_concat(self):
        b = GrammarBuilder()
        v = b.concat(b.literal("SELECT "), b.literal("1"))
        assert ref_generates(b.grammar, v.nt, "SELECT 1")

    def test_concat_all_empty(self):
        b = GrammarBuilder()
        v = b.concat_all([])
        assert ref_generates(b.grammar, v.nt, "")

    def test_join(self):
        b = GrammarBuilder()
        v = b.join([b.literal("a"), b.literal("b")])
        assert ref_generates(b.grammar, v.nt, "a")
        assert ref_generates(b.grammar, v.nt, "b")
        assert not ref_generates(b.grammar, v.nt, "ab")

    def test_join_single_passthrough(self):
        b = GrammarBuilder()
        x = b.literal("a")
        assert b.join([x]) is x


class TestTaint:
    def test_taint_and_query(self):
        b = GrammarBuilder()
        v = b.taint(b.literal("x"), DIRECT)
        assert b.is_tainted(v)
        assert b.labels_of(v) == {DIRECT}

    def test_labels_flow_through_concat(self):
        b = GrammarBuilder()
        tainted = b.taint(b.any_string(), INDIRECT)
        combined = b.concat(b.literal("a"), tainted)
        assert INDIRECT in b.labels_of(combined)

    def test_untainted(self):
        b = GrammarBuilder()
        assert not b.is_tainted(b.literal("x"))


class TestRefinement:
    def test_refine_regex_positive(self):
        b = GrammarBuilder()
        v = b.any_string(DIRECT)
        refined = b.refine_regex(v, parse_regex("^[0-9]+$"), positive=True)
        assert ref_generates(b.grammar, refined.nt, "42")
        assert not ref_generates(b.grammar, refined.nt, "4a")
        assert DIRECT in b.labels_of(refined)

    def test_refine_regex_negative(self):
        b = GrammarBuilder()
        v = b.any_string()
        refined = b.refine_regex(v, parse_regex("^[0-9]+$"), positive=False)
        assert not ref_generates(b.grammar, refined.nt, "42")
        assert ref_generates(b.grammar, refined.nt, "4a")

    def test_refine_unanchored_keeps_attack(self):
        b = GrammarBuilder()
        v = b.any_string(DIRECT)
        refined = b.refine_regex(v, parse_regex("[0-9]+"), positive=True)
        assert ref_generates(b.grammar, refined.nt, "1'; DROP TABLE x; --")


class TestImage:
    def test_image_escapes(self):
        b = GrammarBuilder()
        v = b.join([b.literal("a'b"), b.literal("c")])
        escaped = b.image(v, FST.escape_chars(CharSet.of("'")))
        assert ref_generates(b.grammar, escaped.nt, "a\\'b")
        assert ref_generates(b.grammar, escaped.nt, "c")
        assert not ref_generates(b.grammar, escaped.nt, "a'b")

    def test_image_keeps_taint(self):
        b = GrammarBuilder()
        v = b.taint(b.any_string(), DIRECT)
        escaped = b.image(v, FST.escape_chars(CharSet.of("'")))
        assert DIRECT in b.labels_of(escaped)

    def test_image_of_cyclic_value(self):
        b = GrammarBuilder()
        star = b.charset_star(CharSet.of("a'"))
        escaped = b.image(star, FST.escape_chars(CharSet.of("'")))
        assert ref_generates(b.grammar, escaped.nt, "a\\'a")
        assert not ref_generates(b.grammar, escaped.nt, "'")


class TestWiden:
    def test_widen_superset(self):
        b = GrammarBuilder()
        v = b.literal("ab")
        widened = b.widen(v)
        for text in ("", "ab", "ba", "aabb"):
            assert ref_generates(b.grammar, widened.nt, text)
        assert not ref_generates(b.grammar, widened.nt, "c")

    def test_widen_keeps_taint(self):
        b = GrammarBuilder()
        v = b.taint(b.literal("x"), DIRECT)
        assert DIRECT in b.labels_of(b.widen(v))


class TestCoercion:
    def test_to_str_passthrough(self):
        b = GrammarBuilder()
        v = b.literal("x")
        assert b.to_str(v) is v

    def test_to_str_array(self):
        b = GrammarBuilder()
        v = b.to_str(ArrVal())
        assert ref_generates(b.grammar, v.nt, "Array")

    def test_to_str_none(self):
        b = GrammarBuilder()
        v = b.to_str(None)
        assert ref_generates(b.grammar, v.nt, "")


class TestOperandSizing:
    """``_scoped`` sizes an operand by summing its reachable rule lists
    instead of copying its subgrammar.  On every ``image``/``refine``
    operand of two corpus apps that sum must be the copy's size unless
    the operand reaches a deferred image (which counts as its plan's
    lower bound), and every widening decision — and the scope it leads
    to — must be the one a run that never defers makes."""

    @staticmethod
    def _decisions(app, root, monkeypatch, defer):
        seen = []
        scoped = GrammarBuilder._scoped

        def checked(builder, value, hint):
            counted = builder.operand_size(value)
            reach = builder.grammar.reachable(value.nt)
            deferred = bool(builder._deferred.keys() & reach)
            if not deferred:
                copied = builder.grammar.subgrammar(value.nt).num_productions()
                assert counted == copied
            scope, used = scoped(builder, value, hint)
            widened = used.nt is not value.nt
            assert widened == (counted > builder.widen_threshold)
            if deferred:
                assert widened
            seen.append((hint, widened, scope.num_productions(), deferred))
            return scope, used

        with monkeypatch.context() as patch:
            patch.setattr(GrammarBuilder, "_scoped", checked)
            if not defer:
                patch.setattr(absdom, "fst_image", _never_defer)
            run_pages(root, entry_pages(root), jobs=1)
        return seen

    @pytest.mark.parametrize("app", ["eve_activity_tracker", "tiger_php_news"])
    def test_reachable_rule_count_is_subgrammar_size(
        self, app, tmp_path, monkeypatch
    ):
        build_app(tmp_path, app)
        root = tmp_path / app
        deferring = self._decisions(app, root, monkeypatch, defer=True)
        eager = self._decisions(app, root, monkeypatch, defer=False)
        assert deferring
        assert not any(deferred for *_, deferred in eager)
        assert [d[:3] for d in deferring] == [d[:3] for d in eager]
        if app == "tiger_php_news":
            assert any(deferred for *_, deferred in deferring)


def _never_defer(grammar, root, fst, defer_above=None):
    """:func:`repro.lang.image.fst_image` with deferral switched off."""
    return fst_image(grammar, root, fst)

