"""Unit and property tests for the interval character-set algebra."""

import string

from hypothesis import given, strategies as st

from repro.lang.charset import (
    ALNUM,
    CharSet,
    DIGITS,
    MAX_CODEPOINT,
    SPACE,
    WORD,
)

from .reference import partition_charsets


def small_charsets():
    """Strategy: charsets over a small, collision-prone alphabet."""
    interval = st.tuples(st.integers(0, 120), st.integers(0, 40)).map(
        lambda pair: (pair[0], pair[0] + pair[1])
    )
    return st.lists(interval, max_size=5).map(CharSet)


class TestConstruction:
    def test_empty(self):
        assert not CharSet.empty()
        assert CharSet.empty().size() == 0

    def test_of_chars(self):
        cs = CharSet.of("abc")
        assert "a" in cs and "b" in cs and "c" in cs
        assert "d" not in cs
        assert cs.size() == 3

    def test_of_merges_adjacent(self):
        assert CharSet.of("abc").intervals == ((ord("a"), ord("c")),)

    def test_range(self):
        cs = CharSet.range("0", "9")
        assert cs == DIGITS
        assert cs.size() == 10

    def test_overlapping_intervals_merge(self):
        cs = CharSet([(10, 20), (15, 30), (31, 40)])
        assert cs.intervals == ((10, 40),)

    def test_out_of_order_intervals(self):
        assert CharSet([(30, 40), (10, 20)]).intervals == ((10, 20), (30, 40))

    def test_inverted_interval_dropped(self):
        assert CharSet([(20, 10)]) == CharSet.empty()

    def test_any_char_covers_everything(self):
        any_cs = CharSet.any_char()
        assert "a" in any_cs
        assert chr(MAX_CODEPOINT) in any_cs
        assert any_cs.size() == MAX_CODEPOINT + 1


class TestMembership:
    def test_contains_accepts_int(self):
        assert ord("q") in CharSet.of("q")

    def test_binary_search_boundaries(self):
        cs = CharSet([(10, 12), (20, 22), (30, 32)])
        for cp in (10, 12, 20, 22, 30, 32):
            assert cp in cs
        for cp in (9, 13, 19, 23, 29, 33):
            assert cp not in cs

    def test_singleton(self):
        assert CharSet.of("x").is_singleton()
        assert not CharSet.of("xy").is_singleton()
        assert not CharSet.empty().is_singleton()

    def test_min_and_sample(self):
        assert CharSet.of("zay").min_char() == "a"
        assert CharSet.of("\x01a").sample_char() == "a"

    def test_chars_iteration_limit(self):
        assert list(DIGITS.chars(limit=3)) == ["0", "1", "2"]
        assert list(DIGITS.chars()) == list(string.digits)


class TestAlgebra:
    def test_union(self):
        assert DIGITS.union(CharSet.of("abc")).size() == 13

    def test_intersect(self):
        assert ALNUM.intersect(DIGITS) == DIGITS
        assert DIGITS.intersect(SPACE) == CharSet.empty()

    def test_complement_roundtrip(self):
        assert DIGITS.complement().complement() == DIGITS

    def test_complement_of_empty(self):
        assert CharSet.empty().complement() == CharSet.any_char()

    def test_difference(self):
        assert WORD.difference(ALNUM) == CharSet.of("_")

    def test_overlaps(self):
        assert ALNUM.overlaps(DIGITS)
        assert not DIGITS.overlaps(SPACE)
        assert not CharSet.empty().overlaps(CharSet.any_char())

    def test_subset(self):
        assert DIGITS.is_subset_of(ALNUM)
        assert not ALNUM.is_subset_of(DIGITS)
        assert CharSet.empty().is_subset_of(CharSet.empty())

    @given(small_charsets(), small_charsets())
    def test_union_is_superset(self, a, b):
        union = a.union(b)
        assert a.is_subset_of(union) and b.is_subset_of(union)

    @given(small_charsets(), small_charsets())
    def test_intersection_is_subset(self, a, b):
        both = a.intersect(b)
        assert both.is_subset_of(a) and both.is_subset_of(b)

    @given(small_charsets())
    def test_complement_is_disjoint_and_covering(self, a):
        comp = a.complement()
        assert not a.overlaps(comp)
        assert a.union(comp) == CharSet.any_char()

    @given(small_charsets(), small_charsets())
    def test_de_morgan(self, a, b):
        lhs = a.union(b).complement()
        rhs = a.complement().intersect(b.complement())
        assert lhs == rhs

    @given(small_charsets(), small_charsets())
    def test_difference_semantics(self, a, b):
        diff = a.difference(b)
        for char in diff.chars(limit=32):
            assert char in a and char not in b


class TestHashEq:
    def test_equal_sets_equal_hash(self):
        assert hash(CharSet.of("abc")) == hash(CharSet([(97, 99)]))

    def test_usable_as_dict_key(self):
        table = {DIGITS: 1}
        assert table[CharSet.range("0", "9")] == 1

    def test_repr_readable(self):
        assert "0-9" in repr(DIGITS)
        assert repr(CharSet.empty()) == "CharSet(∅)"
        assert repr(CharSet.any_char()) == "CharSet(Σ)"


class TestPartition:
    def test_disjoint_classes(self):
        classes = partition_charsets([ALNUM, DIGITS, CharSet.of("abc")])
        for i, a in enumerate(classes):
            for b in classes[i + 1 :]:
                assert not a.overlaps(b)

    def test_inputs_are_unions_of_classes(self):
        inputs = [ALNUM, DIGITS, CharSet.of("a_z"), SPACE]
        classes = partition_charsets(inputs)
        for original in inputs:
            rebuilt = CharSet.union_of(
                [cls for cls in classes if cls.overlaps(original)]
            )
            assert rebuilt == original

    def test_empty_input(self):
        assert partition_charsets([]) == []

    @given(st.lists(small_charsets(), max_size=4))
    def test_partition_property(self, sets):
        classes = partition_charsets(sets)
        union_in = CharSet.union_of(sets)
        union_out = CharSet.union_of(classes)
        assert union_in == union_out
        for i, a in enumerate(classes):
            assert a
            for b in classes[i + 1 :]:
                assert not a.overlaps(b)
