"""Tests for the regex engine, cross-checked against Python's ``re``."""

import re

import pytest
from hypothesis import given, settings, strategies as st

from repro.lang.regex import (
    Alt,
    Anchor,
    Literal,
    Repeat,
    RegexError,
    Seq,
    full_match_language,
    literal_prefix,
    parse_php_regex,
    parse_regex,
    search_language,
)


def full(pattern: str, ignore_case=False):
    return full_match_language(parse_regex(pattern, ignore_case))


def search(pattern: str, ignore_case=False):
    return search_language(parse_regex(pattern, ignore_case))


class TestBasics:
    def test_literal(self):
        nfa = full("abc")
        assert nfa.accepts_string("abc")
        assert not nfa.accepts_string("ab")

    def test_dot_excludes_newline(self):
        nfa = full("a.c")
        assert nfa.accepts_string("abc")
        assert nfa.accepts_string("a'c")
        assert not nfa.accepts_string("a\nc")

    def test_alternation(self):
        nfa = full("cat|dog|bird")
        for word in ("cat", "dog", "bird"):
            assert nfa.accepts_string(word)
        assert not nfa.accepts_string("catdog")

    def test_grouping(self):
        nfa = full("(ab)+")
        assert nfa.accepts_string("abab")
        assert not nfa.accepts_string("aba")

    def test_non_capturing_group(self):
        pattern = parse_regex("(?:ab)+(c)")
        assert pattern.group_count == 1
        assert full_match_language(pattern).accepts_string("ababc")

    def test_empty_pattern(self):
        assert full("").accepts_string("")


class TestQuantifiers:
    @pytest.mark.parametrize(
        "pattern,text,expected",
        [
            ("a*", "", True),
            ("a*", "aaa", True),
            ("a+", "", False),
            ("a+", "a", True),
            ("a?", "", True),
            ("a?", "aa", False),
            ("a{3}", "aaa", True),
            ("a{3}", "aa", False),
            ("a{2,}", "aaaa", True),
            ("a{2,}", "a", False),
            ("a{1,3}", "aa", True),
            ("a{1,3}", "aaaa", False),
        ],
    )
    def test_quantifier(self, pattern, text, expected):
        assert full(pattern).accepts_string(text) == expected

    def test_lazy_same_language(self):
        assert full("a+?").accepts_string("aaa")

    def test_brace_literal_when_not_count(self):
        nfa = full("a{b}")
        assert nfa.accepts_string("a{b}")


class TestCharClasses:
    def test_simple_class(self):
        nfa = full("[abc]")
        for char in "abc":
            assert nfa.accepts_string(char)
        assert not nfa.accepts_string("d")

    def test_range(self):
        nfa = full("[a-f0-3]")
        for char in "af03":
            assert nfa.accepts_string(char)
        for char in "g4":
            assert not nfa.accepts_string(char)

    def test_negated_class(self):
        nfa = full("[^']")
        assert nfa.accepts_string("a")
        assert not nfa.accepts_string("'")

    def test_class_with_escape(self):
        nfa = full(r"[\d\-]")
        assert nfa.accepts_string("5")
        assert nfa.accepts_string("-")
        assert not nfa.accepts_string("a")

    def test_literal_bracket_first(self):
        nfa = full("[]a]")
        assert nfa.accepts_string("]")
        assert nfa.accepts_string("a")

    def test_posix_class(self):
        nfa = full("[[:digit:]]+")
        assert nfa.accepts_string("123")
        assert not nfa.accepts_string("x")

    def test_escapes(self):
        assert full(r"\d+").accepts_string("42")
        assert full(r"\w+").accepts_string("foo_9")
        assert not full(r"\w+").accepts_string("a b")
        assert full(r"\s").accepts_string("\t")
        assert full(r"\.").accepts_string(".")
        assert not full(r"\.").accepts_string("a")
        assert full(r"\x41").accepts_string("A")
        assert full(r"\n").accepts_string("\n")

    def test_unsupported_backreference(self):
        with pytest.raises(RegexError):
            parse_regex(r"(a)\1")


class TestIgnoreCase:
    def test_literal(self):
        nfa = full("select", ignore_case=True)
        for text in ("select", "SELECT", "SeLeCt"):
            assert nfa.accepts_string(text)

    def test_class(self):
        nfa = full("[a-f]+", ignore_case=True)
        assert nfa.accepts_string("DEAD")
        assert not nfa.accepts_string("XYZ")


class TestSearchSemantics:
    """The Figure 2 bug: unanchored patterns accept attack payloads."""

    def test_unanchored_digit_pattern_accepts_attack(self):
        nfa = search("[0-9]+")
        assert nfa.accepts_string("123")
        assert nfa.accepts_string("1'; DROP TABLE unp_user; --")

    def test_anchored_pattern_rejects_attack(self):
        nfa = search(r"^[0-9]+$")
        assert nfa.accepts_string("123")
        assert not nfa.accepts_string("1'; DROP TABLE unp_user; --")

    def test_start_anchor_only(self):
        nfa = search("^abc")
        assert nfa.accepts_string("abcdef")
        assert not nfa.accepts_string("xabc")

    def test_end_anchor_only(self):
        nfa = search("abc$")
        assert nfa.accepts_string("xabc")
        assert not nfa.accepts_string("abcx")

    def test_no_match_strings_rejected(self):
        nfa = search("[0-9]")
        assert not nfa.accepts_string("no digits here")


class TestPhpDelimiters:
    def test_slash_delimited(self):
        pattern = parse_php_regex(r"/^[\d]+$/")
        assert full_match_language(pattern).accepts_string("42")

    def test_flags(self):
        pattern = parse_php_regex("/abc/i")
        assert pattern.ignore_case
        assert full_match_language(pattern).accepts_string("ABC")

    def test_alternative_delimiters(self):
        pattern = parse_php_regex("#a/b#")
        assert full_match_language(pattern).accepts_string("a/b")

    def test_bracket_delimiters(self):
        pattern = parse_php_regex("(ab)")
        assert full_match_language(pattern).accepts_string("ab")

    def test_bad_pattern(self):
        with pytest.raises(RegexError):
            parse_php_regex("/abc")
        with pytest.raises(RegexError):
            parse_php_regex("x")


class TestAgainstPythonRe:
    """Differential testing against the reference implementation."""

    PATTERNS = [
        r"[0-9]+",
        r"^[0-9]+$",
        r"[a-z]+@[a-z]+\.(com|org)",
        r"(ab|cd)*e?",
        r"[^'\\]*",
        r"a{2,4}b",
        r"\w+\s\w+",
    ]

    @given(st.sampled_from(PATTERNS), st.text(alphabet="ab01'@.\\ czde-", max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_fullmatch_agrees(self, pattern, text):
        ours = full(pattern).accepts_string(text)
        theirs = re.fullmatch(pattern, text) is not None
        assert ours == theirs

    @given(st.sampled_from(PATTERNS), st.text(alphabet="ab01'@.\\ czde-", max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_search_agrees(self, pattern, text):
        ours = search(pattern).accepts_string(text)
        theirs = re.search(pattern, text) is not None
        assert ours == theirs


class TestLiteralPrefix:
    def test_plain(self):
        assert literal_prefix(parse_regex("abc[0-9]")) == "abc"

    def test_anchored(self):
        assert literal_prefix(parse_regex("^lan_[a-z]+")) == "lan_"

    def test_none(self):
        assert literal_prefix(parse_regex("[0-9]x")) == ""


class TestAstValues:
    """Regex AST nodes are immutable values: equal and hashing by their
    fields, distinct across node types; a :class:`Pattern` compares by
    value but does not hash."""

    def test_nodes_equal_and_hash_by_value(self):
        first = parse_regex("(a|[0-9]+)x{2,3}").root
        second = parse_regex("(a|[0-9]+)x{2,3}").root
        assert first == second
        assert hash(first) == hash(second)
        assert len({first, second}) == 1
        assert first != parse_regex("(a|[0-9]+)x{2,4}").root

    def test_node_types_never_compare_equal(self):
        assert Literal("a") != Anchor("a")
        assert Seq(()) != Alt(())

    def test_pattern_compares_by_value_but_does_not_hash(self):
        assert parse_regex("a+", ignore_case=True) == parse_regex("a+", ignore_case=True)
        assert parse_regex("a+") != parse_regex("a+", ignore_case=True)
        with pytest.raises(TypeError):
            hash(parse_regex("a+"))

    def test_nodes_are_plain_classes(self):
        # no dataclass code generation when the module is imported
        from repro.lang import regex

        assert not [
            name for name, value in vars(regex).items()
            if isinstance(value, type) and hasattr(value, "__dataclass_fields__")
        ]

    def test_repr_names_the_fields(self):
        assert repr(Repeat(Literal("a"), 1, None)) == (
            "Repeat(node=Literal(text='a'), low=1, high=None)"
        )
