"""Differential tests: builtin transducer models vs. reference
implementations of the PHP semantics (hypothesis-driven).

For every exactly-modeled function we implement the PHP behaviour in
plain Python and check, on random inputs, that the concrete output is
derivable from the model's output grammar — the per-function instance of
the analysis' soundness contract ("the model over-approximates the
function").  For the deterministic FST models we additionally check
*exactness* (the FST output equals the reference output).
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.absdom import GrammarBuilder
from repro.lang.charset import CharSet
from repro.lang.fst import FST
from repro.php import ast, builtins

from ..lang.reference import ref_generates


# ---------------------------------------------------------------------------
# reference implementations of PHP semantics
# ---------------------------------------------------------------------------


# addslashes/stripslashes references live in builtins itself now (the
# differential oracle's CONCRETE registry) — real PHP semantics where
# ``\0`` escapes to backslash-zero and unescapes back to NUL
php_addslashes = builtins.php_addslashes
php_stripslashes = builtins.php_stripslashes


def php_htmlspecialchars(value: str, ent_quotes: bool = False) -> str:
    value = value.replace("&", "&amp;")
    value = value.replace("<", "&lt;").replace(">", "&gt;")
    value = value.replace('"', "&quot;")
    if ent_quotes:
        value = value.replace("'", "&#039;")
    return value


def php_nl2br(value: str) -> str:
    return value.replace("\n", "<br />\n")


def php_strtr(value: str, frm: str, to: str) -> str:
    table = {f: t for f, t in zip(frm, to)}
    return "".join(table.get(c, c) for c in value)


TEXTS = st.text(alphabet="ab'\"\\<>&\n x0", max_size=14)


# ---------------------------------------------------------------------------
# FST exactness
# ---------------------------------------------------------------------------


class TestFstExactness:
    @given(TEXTS)
    @settings(max_examples=150, deadline=None)
    def test_addslashes(self, text):
        fst = builtins._addslashes_fst()
        assert fst.apply_once(text) == php_addslashes(text)

    @given(TEXTS)
    @settings(max_examples=150, deadline=None)
    def test_stripslashes(self, text):
        fst = builtins._stripslashes_fst()
        assert fst.apply_once(text) == php_stripslashes(text)

    @given(TEXTS)
    @settings(max_examples=150, deadline=None)
    def test_htmlspecialchars_default(self, text):
        fst = builtins._htmlspecialchars_fst("ENT_COMPAT")
        assert fst.apply_once(text) == php_htmlspecialchars(text)

    @given(TEXTS)
    @settings(max_examples=150, deadline=None)
    def test_htmlspecialchars_ent_quotes(self, text):
        fst = builtins._htmlspecialchars_fst("ENT_QUOTES")
        assert fst.apply_once(text) == php_htmlspecialchars(text, ent_quotes=True)

    @given(TEXTS)
    @settings(max_examples=100, deadline=None)
    def test_nl2br(self, text):
        fst = FST.char_map([(CharSet.of("\n"), ("<br />\n",))])
        assert fst.apply_once(text) == php_nl2br(text)

    @given(TEXTS)
    @settings(max_examples=100, deadline=None)
    def test_addslashes_then_stripslashes_roundtrip(self, text):
        add = builtins._addslashes_fst()
        strip = builtins._stripslashes_fst()
        assert strip.apply_once(add.apply_once(text)) == text


# ---------------------------------------------------------------------------
# model-output grammars over-approximate concrete outputs
# ---------------------------------------------------------------------------


def model_language_contains(name, literal_args, concrete_output):
    builder = GrammarBuilder()
    nodes = [ast.Literal(value=arg) for arg in literal_args]
    values = [builder.literal(arg) for arg in literal_args]
    result = builtins.model_call(name, builder, values, nodes)
    return ref_generates(builder.grammar, builder.to_str(result).nt, concrete_output)


class TestModelSoundness:
    @given(TEXTS)
    @settings(max_examples=60, deadline=None)
    def test_addslashes_model(self, text):
        assert model_language_contains("addslashes", [text], php_addslashes(text))

    @given(TEXTS)
    @settings(max_examples=60, deadline=None)
    def test_strtolower_model(self, text):
        assert model_language_contains("strtolower", [text], text.lower())

    @given(st.text(alphabet="ab,x", max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_explode_model_contains_all_pieces(self, text):
        builder = GrammarBuilder()
        nodes = [ast.Literal(value=","), ast.Var(name="s")]
        values = [builder.literal(","), builder.literal(text)]
        result = builtins.model_call("explode", builder, values, nodes)
        for piece in text.split(","):
            assert ref_generates(builder.grammar, result.default.nt, piece), (
                text,
                piece,
            )

    @given(st.text(alphabet="ab'1x ", max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_intval_model(self, text):
        match = re.match(r"\s*[+-]?[0-9]+", text)
        concrete = str(int(match.group())) if match else "0"
        assert model_language_contains("intval", [text], concrete)

    @given(st.text(alphabet="abc<>&' ", max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_htmlspecialchars_model(self, text):
        assert model_language_contains(
            "htmlspecialchars", [text], php_htmlspecialchars(text)
        )

    @given(st.text(alphabet="ab\n", max_size=10))
    @settings(max_examples=40, deadline=None)
    def test_nl2br_model(self, text):
        assert model_language_contains("nl2br", [text], php_nl2br(text))

    @pytest.mark.parametrize(
        "subject,frm,to",
        [("abcabc", "ac", "xz"), ("hello", "l", "L"), ("", "a", "b")],
    )
    def test_strtr_model(self, subject, frm, to):
        builder = GrammarBuilder()
        nodes = [
            ast.Var(name="s"),
            ast.Literal(value=frm),
            ast.Literal(value=to),
        ]
        values = [builder.literal(subject), builder.literal(frm), builder.literal(to)]
        result = builtins.model_call("strtr", builder, values, nodes)
        assert ref_generates(builder.grammar, 
            builder.to_str(result).nt, php_strtr(subject, frm, to)
        )

    @given(st.text(alphabet="ab1 '", max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_sprintf_s_model(self, text):
        builder = GrammarBuilder()
        nodes = [ast.Literal(value="v=%s!"), ast.Var(name="x")]
        values = [builder.literal("v=%s!"), builder.literal(text)]
        result = builtins.model_call("sprintf", builder, values, nodes)
        assert ref_generates(builder.grammar, builder.to_str(result).nt, f"v={text}!")
