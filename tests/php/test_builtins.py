"""Tests for the PHP builtin function models."""


from repro.analysis.absdom import GrammarBuilder
from repro.analysis.values import ArrVal
from repro.lang.grammar import DIRECT
from repro.php import ast, builtins

from ..lang.reference import ref_generates


def lit(text):
    return ast.Literal(value=text)


def call_model(name, *literal_args, builder=None):
    builder = builder or GrammarBuilder()
    nodes = [lit(a) for a in literal_args]
    values = [builder.literal(a) for a in literal_args]
    return builder, builtins.model_call(name, builder, values, nodes)


def gen(builder, value, text):
    return ref_generates(builder.grammar, builder.to_str(value).nt, text)


class TestEscaping:
    def test_addslashes(self):
        b, v = call_model("addslashes", "a'b")
        assert gen(b, v, "a\\'b")
        assert not gen(b, v, "a'b")

    def test_mysql_real_escape_string(self):
        b, v = call_model("mysql_real_escape_string", "x'y\"z")
        assert gen(b, v, 'x\\\'y\\"z')

    def test_mysqli_argument_order(self):
        b = GrammarBuilder()
        conn = b.literal("conn")
        subject = b.literal("a'b")
        v = builtins.model_call(
            "mysqli_real_escape_string", b, [conn, subject], [lit("conn"), lit("a'b")]
        )
        assert gen(b, v, "a\\'b")

    def test_stripslashes(self):
        b, v = call_model("stripslashes", "a\\'b")
        assert gen(b, v, "a'b")

    def test_htmlspecialchars_default_keeps_single_quote(self):
        b, v = call_model("htmlspecialchars", "<a href='x'>")
        assert gen(b, v, "&lt;a href='x'&gt;")

    def test_htmlspecialchars_ent_quotes(self):
        b = GrammarBuilder()
        subject = b.literal("it's")
        v = builtins.model_call(
            "htmlspecialchars",
            b,
            [subject, b.literal("ENT_QUOTES")],
            [lit("it's"), ast.ConstFetch(name="ENT_QUOTES")],
        )
        assert gen(b, v, "it&#039;s")


class TestReplacement:
    def test_str_replace_literal(self):
        b, v = call_model("str_replace", "''", "'", "a''b")
        assert gen(b, v, "a'b")

    def test_figure6_fst(self):
        """The FST of the paper's Figure 6 drives str_replace("''", "'")."""
        from repro.lang.fst import FST

        fst = FST.replace_string("''", "'")
        assert fst.apply_once("A''B") == "A'B"
        assert fst.apply_once("''''") == "''"

    def test_str_replace_array_form(self):
        b = GrammarBuilder()
        search = ast.ArrayLit(items=[(None, lit("<")), (None, lit(">"))])
        replace = ast.ArrayLit(items=[(None, lit("[")), (None, lit("]"))])
        subject = b.literal("<b>")
        v = builtins.model_call(
            "str_replace", b, [None, None, subject], [search, replace, lit("")]
        )
        assert gen(b, v, "[b]")

    def test_str_replace_dynamic_pattern_widens(self):
        b = GrammarBuilder()
        subject = b.taint(b.literal("abc"), DIRECT)
        v = builtins.model_call(
            "str_replace",
            b,
            [b.any_string(), b.literal("x"), subject],
            [ast.Var(name="p"), lit("x"), ast.Var(name="s")],
        )
        assert DIRECT in b.labels_of(b.to_str(v))

    def test_preg_replace_class_deletion(self):
        b, v = call_model("preg_replace", "/[^0-9]/", "", "a1b2")
        assert gen(b, v, "12")
        assert not gen(b, v, "a1b2")

    def test_preg_replace_class_plus(self):
        b, v = call_model("preg_replace", "/[a-z]+/", "_", "ab12cd")
        assert gen(b, v, "_12_")

    def test_preg_replace_literal_pattern(self):
        b, v = call_model("preg_replace", "/--/", "", "a--b")
        assert gen(b, v, "ab")

    def test_preg_replace_complex_widens_soundly(self):
        b = GrammarBuilder()
        subject = b.taint(b.literal("ab"), DIRECT)
        v = builtins.model_call(
            "preg_replace",
            b,
            [b.literal("/a(b|c)/"), b.literal("x\\1"), subject],
            [lit("/a(b|c)/"), lit("x\\1"), ast.Var(name="s")],
        )
        # widened: original strings still derivable (sound over-approx)
        assert gen(b, v, "ab")
        assert DIRECT in b.labels_of(b.to_str(v))

    def test_ereg_replace_no_delimiters(self):
        b, v = call_model("ereg_replace", "[0-9]", "N", "a1b")
        assert gen(b, v, "aNb")

    def test_strtr_literal(self):
        b, v = call_model("strtr", "abc", "ac", "xz")
        assert gen(b, v, "xbz")


class TestCaseAndShape:
    def test_strtolower(self):
        b, v = call_model("strtolower", "DROP")
        assert gen(b, v, "drop")
        assert not gen(b, v, "DROP")

    def test_strtoupper(self):
        b, v = call_model("strtoupper", "select")
        assert gen(b, v, "SELECT")

    def test_strrev(self):
        b, v = call_model("strrev", "abc")
        assert gen(b, v, "cba")
        assert not gen(b, v, "abc")

    def test_substr_contains_all_substrings(self):
        b, v = call_model("substr", "hello")
        for text in ("", "h", "ell", "hello", "o"):
            assert gen(b, v, text)
        assert not gen(b, v, "hx")

    def test_str_repeat(self):
        b, v = call_model("str_repeat", "ab")
        for text in ("", "ab", "abab"):
            assert gen(b, v, text)
        assert not gen(b, v, "aba")

    def test_trim_contains_trimmed(self):
        b, v = call_model("trim", " x ")
        assert gen(b, v, "x")
        assert gen(b, v, " x ")  # sound over-approximation keeps original


class TestSprintf:
    def test_numeric_directive_sanitizes(self):
        b = GrammarBuilder()
        tainted = b.taint(b.any_string(), DIRECT)
        v = builtins.model_call(
            "sprintf",
            b,
            [b.literal("id=%d"), tainted],
            [lit("id=%d"), ast.Var(name="x")],
        )
        assert gen(b, v, "id=42")
        assert not gen(b, v, "id='; DROP")

    def test_string_directive_flows(self):
        b = GrammarBuilder()
        arg = b.literal("abc")
        v = builtins.model_call(
            "sprintf",
            b,
            [b.literal("[%s]"), arg],
            [lit("[%s]"), ast.Var(name="x")],
        )
        assert gen(b, v, "[abc]")

    def test_percent_escape(self):
        b, v = call_model("sprintf", "100%%")
        assert gen(b, v, "100%")

    def test_width_flags_skipped(self):
        b = GrammarBuilder()
        v = builtins.model_call(
            "sprintf", b, [b.literal("%05d")], [lit("%05d")]
        )
        assert gen(b, v, "42")


class TestStructure:
    def test_explode_pieces(self):
        b = GrammarBuilder()
        subject = b.literal("a,b,c")
        v = builtins.model_call(
            "explode", b, [b.literal(","), subject], [lit(","), ast.Var(name="s")]
        )
        assert isinstance(v, ArrVal)
        piece = v.default
        for text in ("a", "b", "c"):
            assert ref_generates(b.grammar, piece.nt, text)
        # pieces never contain the delimiter
        assert not ref_generates(b.grammar, piece.nt, "a,b")

    def test_implode(self):
        b = GrammarBuilder()
        arr = ArrVal(elements={"0": b.literal("x"), "1": b.literal("y")})
        v = builtins.model_call(
            "implode", b, [b.literal(","), arr], [lit(","), ast.Var(name="a")]
        )
        assert gen(b, v, "x,y")
        assert gen(b, v, "x")
        assert gen(b, v, "")

    def test_md5_is_hex(self):
        b, v = call_model("md5", "secret")
        assert gen(b, v, "a" * 32)
        assert not gen(b, v, "'; DROP")
        assert not b.is_tainted(b.to_str(v))

    def test_intval_numeric(self):
        b, v = call_model("intval", "123abc")
        assert gen(b, v, "123")
        assert not gen(b, v, "123abc")

    def test_urlencode_restricted_alphabet(self):
        b = GrammarBuilder()
        tainted = b.taint(b.any_string(), DIRECT)
        v = builtins.model_call("urlencode", b, [tainted], [ast.Var(name="x")])
        assert not gen(b, v, "it's")
        assert gen(b, v, "it%27s")
        assert DIRECT in b.labels_of(b.to_str(v))


class TestRegistry:
    def test_unknown_returns_none(self):
        b = GrammarBuilder()
        assert builtins.model_call("no_such_function", b, [], []) is None

    def test_no_effect_functions(self):
        b = GrammarBuilder()
        v = builtins.model_call("header", b, [b.literal("x")], [lit("x")])
        assert v is not None

    def test_catalog_size(self):
        # the paper registered 243 specs; our catalog covers the
        # sanitizer-relevant core plus no-effect declarations
        assert len(builtins.BUILTINS) + len(builtins.NO_EFFECT) >= 130


class TestPredicates:
    def test_preg_match(self):
        call = ast.Call(
            name="preg_match", args=[lit(r"/^[\d]+$/"), ast.Var(name="x")]
        )
        subject, pattern = builtins.predicate_language(call)
        assert subject.name == "x"
        from repro.lang.regex import search_language

        language = search_language(pattern)
        assert language.accepts_string("42")
        assert not language.accepts_string("4a")

    def test_eregi_case_insensitive(self):
        call = ast.Call(name="eregi", args=[lit("[a-f]+"), ast.Var(name="x")])
        _, pattern = builtins.predicate_language(call)
        assert pattern.ignore_case

    def test_dynamic_pattern_unmodeled(self):
        call = ast.Call(
            name="preg_match", args=[ast.Var(name="p"), ast.Var(name="x")]
        )
        assert builtins.predicate_language(call) is None

    def test_is_numeric(self):
        call = ast.Call(name="is_numeric", args=[ast.Var(name="x")])
        _, pattern = builtins.predicate_language(call)
        from repro.lang.regex import search_language

        language = search_language(pattern)
        assert language.accepts_string("3.14")
        assert not language.accepts_string("3x")

    def test_in_array_literal_set(self):
        arr = ast.ArrayLit(items=[(None, lit("asc")), (None, lit("desc"))])
        call = ast.Call(name="in_array", args=[ast.Var(name="x"), arr])
        subject, language = builtins.predicate_language(call)
        assert language.accepts_string("asc")
        assert not language.accepts_string("'; DROP")

    def test_in_array_dynamic_unmodeled(self):
        call = ast.Call(
            name="in_array", args=[ast.Var(name="x"), ast.Var(name="a")]
        )
        assert builtins.predicate_language(call) is None
