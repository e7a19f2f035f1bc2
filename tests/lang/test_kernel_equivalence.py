"""Randomized equivalence: optimized kernels vs. their reference models.

The hot kernels (bitset charsets, the compiled Earley recognizer and its
char-level membership test, the lazy FST image, the reachable-only
intersection, the one-pass trims) all promise *exact* semantics — every
optimization is a constant-factor rewrite, never an approximation.  `tests/lang/reference.py` keeps the
original, simple implementations; these tests drive both sides with
randomized inputs and require agreement.
"""

import pytest
from hypothesis import given, settings, strategies as st

from . import reference as ref
from repro.lang.charset import DIGITS, CharSet
from repro.lang.earley import (
    TokenGrammar,
    char_membership,
    char_token_grammar,
    parse_sentential_form,
)
from repro.lang.fsa import DFA
from repro.lang.fst import FST, FSTExplosion
from repro.lang.grammar import Grammar, Lit, Nonterminal
from repro.lang.image import ImagePlan, _summarize, fst_image, plan_image
from repro.lang.intersect import (
    _PairTable,
    _pair_table,
    intersect,
    intersection_is_empty,
)
from repro.lang.regex import full_match_language, parse_regex, search_language
from repro.obs.metrics import PERF
from repro.sql import bridge


# -- strategies ---------------------------------------------------------------

raw_intervals = st.lists(
    st.tuples(st.integers(0, 220), st.integers(0, 40)).map(
        lambda t: (t[0], t[0] + t[1])
    ),
    max_size=5,
)


AB_LEAF = st.one_of(
    st.sampled_from([Lit("a"), Lit("b"), Lit("ab")]),
    st.just(CharSet.of("ab")),
)

#: leaves that make the SQL token classes (and their near misses) appear:
#: numbers, signs, quotes, identifiers, a keyword in two spellings
SQL_LEAF = st.sampled_from((
    Lit("7"),
    Lit("-"),
    Lit("."),
    Lit("'"),
    Lit("'x'"),
    Lit("x"),
    Lit("or"),
    Lit("OR"),
    Lit(" "),
    DIGITS,
    CharSet.of("ab_"),
    CharSet.of("'\\"),
))


@st.composite
def random_grammar(draw, leaf=AB_LEAF):
    """A small random grammar over the ``leaf`` symbols (by default
    {a, b}); start is always productive."""
    nt_count = draw(st.integers(2, 4))
    g = Grammar()
    nts = [g.fresh(f"N{i}") for i in range(nt_count)]
    g.start = nts[0]
    for nt in nts:
        g.add(nt, tuple(draw(st.lists(leaf, max_size=2))))
        for _ in range(draw(st.integers(0, 2))):
            symbols = draw(
                st.lists(
                    st.one_of(leaf, st.sampled_from(nts)),
                    min_size=1,
                    max_size=3,
                )
            )
            g.add(nt, tuple(symbols))
    return g


@st.composite
def token_grammar_and_form(draw):
    nts = ["S", "A", "B"]
    terms = ["a", "b"]
    g = TokenGrammar("S")
    for nt in nts:
        for _ in range(draw(st.integers(1, 3))):
            g.add(nt, tuple(draw(st.lists(st.sampled_from(nts + terms), max_size=3))))
    form = draw(st.lists(st.sampled_from(nts + terms + ["X"]), max_size=4))
    return g, form


FSTS = [
    FST.identity(),
    FST.lowercase(),
    FST.delete_chars(CharSet.of("a")),
    FST.replace_chars(CharSet.of("b"), "X"),
    FST.escape_chars(CharSet.of("ab")),
]

DFAS = [
    search_language(parse_regex(p)).determinize()
    for p in ("[0-9]", "a", "ab", "[^ab]")
] + [
    full_match_language(parse_regex(p)).determinize()
    for p in ("[ab]*", "a*", "(ab)+", "b")
]


# -- charsets vs. interval reference ------------------------------------------


class TestCharSetReference:
    @given(raw_intervals)
    @settings(max_examples=100, deadline=None)
    def test_normalize(self, a):
        assert CharSet(a).intervals == ref.ref_normalize(a)

    @given(raw_intervals, raw_intervals)
    @settings(max_examples=100, deadline=None)
    def test_binary_algebra(self, a, b):
        x, y = CharSet(a), CharSet(b)
        an, bn = x.intervals, y.intervals
        assert x.union(y).intervals == ref.ref_union(an, bn)
        assert x.intersect(y).intervals == ref.ref_interval_intersect(an, bn)
        assert x.difference(y).intervals == ref.ref_difference(an, bn)
        assert x.overlaps(y) == ref.ref_overlaps(an, bn)
        assert x.is_subset_of(y) == ref.ref_is_subset(an, bn)

    @given(raw_intervals)
    @settings(max_examples=100, deadline=None)
    def test_complement(self, a):
        x = CharSet(a)
        assert x.complement().intervals == ref.ref_complement(x.intervals)

    @given(raw_intervals, st.integers(0, 300))
    @settings(max_examples=100, deadline=None)
    def test_membership(self, a, cp):
        x = CharSet(a)
        assert (cp in x) == ref.ref_contains(x.intervals, cp)

    @given(st.lists(raw_intervals, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_partition(self, interval_sets):
        sets = [CharSet(iv) for iv in interval_sets]
        got = [p.intervals for p in ref.partition_charsets(sets)]
        assert got == ref.ref_partition([s.intervals for s in sets])


# -- Earley recognizer vs. reference chart ------------------------------------


class TestEarleyReference:
    @given(token_grammar_and_form())
    @settings(max_examples=80, deadline=None)
    def test_recognition_matches(self, case):
        g, form = case
        classes = {"X": frozenset({"a", "b"})}
        assert parse_sentential_form(g, "S", form, classes) == \
            ref.ref_parse_sentential_form(g, "S", form, classes)

    @given(token_grammar_and_form())
    @settings(max_examples=80, deadline=None)
    def test_recognition_matches_no_classes(self, case):
        g, form = case
        form = [s for s in form if s != "X"]
        assert parse_sentential_form(g, "S", form) == \
            ref.ref_parse_sentential_form(g, "S", form)


# -- lazy FST image vs. eager reference construction --------------------------


class TestImageReference:
    @given(random_grammar(), st.sampled_from(FSTS))
    @settings(max_examples=40, deadline=None)
    def test_image_fingerprint_matches(self, g, fst):
        fast, fast_start = fst_image(g, g.start, fst)
        slow, slow_start = ref.ref_fst_image(g, g.start, fst)
        assert fast.fingerprint(fast_start) == slow.fingerprint(slow_start)
        # fingerprints are canonical and ignore creation order; names and
        # rule order are what witnesses and samples depend on
        assert _rules_by_name(fast) == _rules_by_name(slow)
        assert [nt.name for nt in fast.productions] == [
            nt.name for nt in slow.productions
        ]

    @given(random_grammar(), st.sampled_from(FSTS))
    @settings(max_examples=30, deadline=None)
    def test_image_samples_in_reference_language(self, g, fst):
        fast, fast_start = fst_image(g, g.start, fst)
        slow, slow_start = ref.ref_fst_image(g, g.start, fst)
        for text in fast.shortest_strings(fast_start, limit=4):
            assert ref.ref_generates(slow, slow_start, text), text


# -- one-pass trims ≡ full trim ----------------------------------------------


def _same_grammar(a: Grammar, b: Grammar) -> bool:
    return (
        list(a.productions) == list(b.productions)
        and all(a.productions[nt] == b.productions[nt] for nt in a.productions)
        and {nt: set(s) for nt, s in a.labels.items() if s}
        == {nt: set(s) for nt, s in b.labels.items() if s}
        and a._nrules == sum(len(r) for r in a.productions.values())
    )


class TestOnePassTrims:
    @given(random_grammar(), st.sampled_from(FSTS))
    @settings(max_examples=40, deadline=None)
    def test_image_trim_is_idempotent(self, g, fst):
        # trim_materialized replaced the full trim inside fst_image; a second,
        # full trim of its output must be the identity
        img, start = fst_image(g, g.start, fst)
        assert _same_grammar(img.trim(start), img)

    @given(random_grammar(), st.sampled_from(DFAS))
    @settings(max_examples=40, deadline=None)
    def test_intersect_trim_is_idempotent(self, g, dfa):
        # same contract for the orphan filter inside intersect
        result, start = intersect(g, g.start, dfa)
        assert _same_grammar(result.trim(start), result)


# -- running-count invariant --------------------------------------------------


class TestRuleCountInvariant:
    @given(random_grammar(), st.sampled_from(DFAS), st.sampled_from(FSTS))
    @settings(max_examples=40, deadline=None)
    def test_nrules_matches_actual_rules(self, g, dfa, fst):
        def check(grammar):
            assert grammar._nrules == sum(
                len(rules) for rules in grammar.productions.values()
            )

        check(g)
        check(g.trim(g.start))
        check(g.subgrammar(g.start))
        check(g.normalized(g.start))
        result, _ = intersect(g, g.start, dfa)
        check(result)
        img, _ = fst_image(g, g.start, fst)
        check(img)


# -- reachable-only intersection vs. the eager product -----------------------


@st.composite
def intersect_case(draw):
    """A random grammar plus the shapes the reachable-only build must
    get right: a unit cycle, a productive nonterminal nothing references,
    and taint labels."""
    g = draw(random_grammar())
    nts = list(g.productions)
    a, b = draw(st.sampled_from(nts)), draw(st.sampled_from(nts))
    g.add(a, (b,))
    g.add(b, (a,))
    unreachable = g.fresh("U")
    g.add(unreachable, (draw(AB_LEAF), draw(st.sampled_from(nts))))
    g.add(unreachable, (draw(AB_LEAF),))
    for nt in list(g.productions):
        if draw(st.booleans()):
            g.add_label(nt, "taint")
    return g


def _rules_by_name(g: Grammar) -> list:
    """Every nonterminal as (name, rules by name and in order, labels)."""

    def show(symbol):
        return symbol.name if type(symbol) is Nonterminal else repr(symbol)

    return sorted(
        (
            nt.name,
            [tuple(show(s) for s in rhs) for rhs in rules],
            sorted(g.labels.get(nt, ())),
        )
        for nt, rules in g.productions.items()
    )


class TestIntersectReference:
    @given(intersect_case(), st.sampled_from(DFAS))
    @settings(max_examples=100, deadline=None)
    def test_reachable_only_matches_eager(self, g, dfa):
        """Building only the triples reachable from an accepting start
        pair keeps every kept triple's name, labels and rules, for the
        scope start and every other root."""
        pairs = ref.pairs_of_rows(_pair_table(g, dfa).rows)
        for root in list(g.productions):
            fast, fast_start = intersect(g, root, dfa)
            slow, slow_start = ref.ref_intersect(g, root, dfa, pairs=pairs)
            assert fast_start.name == slow_start.name
            assert _rules_by_name(fast) == _rules_by_name(slow)
            assert fast.shortest_strings(fast_start, limit=1) == slow.shortest_strings(
                slow_start, limit=1
            )
            assert intersection_is_empty(g, root, dfa) == (
                not slow.productions.get(slow_start)
            )


    @given(intersect_case(), st.sampled_from(DFAS))
    @settings(max_examples=100, deadline=None)
    def test_pair_fixpoint_matches_naive(self, g, dfa):
        """The kernel's worklist fixpoint reaches the same pair sets as a
        naive round-robin one, read through the rows; built from those,
        every root's product has the same triples with the same rules
        and the same language."""
        naive = ref.ref_intersect_pairs(g, dfa)
        solved = ref.pairs_of_rows(_pair_table(g, dfa).rows)
        assert {nt: s for nt, s in solved.items() if s} == {
            nt: s for nt, s in naive.items() if s
        }

        def rule_sets(grammar):
            return [
                (name, sorted(rules), labels)
                for name, rules, labels in _rules_by_name(grammar)
            ]

        for root in list(g.productions):
            fast, fast_start = intersect(g, root, dfa)
            slow, slow_start = ref.ref_intersect(g, root, dfa)
            assert fast_start.name == slow_start.name
            assert rule_sets(fast) == rule_sets(slow)
            for text in fast.shortest_strings(fast_start, limit=2):
                assert ref.ref_generates(slow, slow_start, text), text


# -- one pair table per (scope, automaton) vs. one per root -------------------


def _tables_built() -> int:
    return PERF.counters.get("intersect.tables", 0)


class TestSharedPairTables:
    @given(random_grammar(), st.sampled_from(DFAS))
    @settings(max_examples=100, deadline=None)
    def test_one_table_answers_every_root(self, g, dfa):
        """The fixpoint solves the whole normalized scope, so the table
        built for one root answers every other root exactly as a fresh
        table over that root's own subgrammar does."""
        before = _tables_built()
        shared = _pair_table(g, dfa)
        for nt in g.productions:
            single = intersection_is_empty(g.subgrammar(nt), nt, dfa)
            assert (not shared.accepts_from(nt)) == single
            assert intersection_is_empty(g, nt, dfa) == single
        assert _pair_table(g, dfa) is shared
        # one table for the scope plus at most one per fresh subgrammar
        assert _tables_built() - before <= 1 + len(g.productions)

    @given(random_grammar(), st.sampled_from(DFAS))
    @settings(max_examples=60, deadline=None)
    def test_materialization_ignores_which_root_built_the_table(self, g, dfa):
        """Witness grammars read from a table first built for another
        root equal those of a fresh table: same triples, same order."""
        for nt in g.productions:
            _pair_table(g, dfa)
            shared, s1 = intersect(g, nt, dfa)
            fresh, s2 = intersect(g.structural_copy(), nt, dfa)
            assert shared.canonical_form(s1) == fresh.canonical_form(s2)
            assert [x.name for x in shared.productions] == [
                x.name for x in fresh.productions
            ]


# -- bit rows vs. the set-based pair kernel ----------------------------------


def _sparse(dfa: DFA, stride: int = 7, offset: int = 130) -> DFA:
    """``dfa`` with every state ``s`` renumbered ``stride * s + offset``:
    the same language over sparse state ids, all far above bit 64."""
    out = DFA()
    out.num_states = stride * dfa.num_states + offset
    out.start = stride * dfa.start + offset
    out.accepts = {stride * q + offset for q in dfa.accepts}
    for src, edges in dfa.transitions.items():
        out.transitions[stride * src + offset] = [
            (label, stride * dst + offset) for label, dst in edges
        ]
    return out


def _keywords_dfa() -> DFA:
    """The SQL bridge's keyword DFA: 400 states."""
    bridge._ensure_dfas()
    return bridge._KEYWORDS_DFA


#: SQL leaves plus non-ASCII text, which the literal walk runs per state
ROW_LEAF = st.one_of(
    SQL_LEAF, st.sampled_from((Lit("é"), Lit("x'é"), CharSet.of("éa")))
)

ROW_DFAS = DFAS + [_keywords_dfa(), _sparse(_keywords_dfa()), _sparse(DFAS[0])]

#: a 70-state KMP transducer, so FST rows run past bit 64 too
ROW_FSTS = FSTS + [FST.replace_string("ab" * 35, "X")]


class TestRowKernelReference:
    @given(random_grammar(leaf=ROW_LEAF), st.sampled_from(ROW_DFAS))
    @settings(max_examples=80, deadline=None)
    def test_dfa_rows_match_set_kernel(self, g, dfa):
        """Against a DFA, the rows hold the set kernel's pair relation,
        and the prepass keeps its triples and crossings, for every
        root."""
        before = PERF.counters.get("intersect.fixpoint_iterations", 0)
        table = _PairTable(g, dfa)
        iterations = PERF.counters.get("intersect.fixpoint_iterations", 0) - before
        states = sorted(dfa.live_states())
        slow = ref.RefPairTable(
            g.normalized(), states, ref._dfa_term_pairs(dfa, states)
        )
        # the same worklist, visit for visit
        assert slow.solve() == iterations
        assert ref.pairs_of_rows(table.rows) == {
            nt: s for nt, s in slow.pairs.items() if s
        }
        for root in g.productions:
            ends = [qf for qf in dfa.accepts if (dfa.start, qf) in slow.pairs[root]]
            assert table.accepts_from(root) == sum(1 << q for q in ends)
            crossings, slow_crossings = {}, {}
            kept = table.reachable_triples(
                root, dfa.start, table.accepts_from(root), crossings
            )
            slow_kept = slow.reachable_triples(root, dfa.start, ends, slow_crossings)
            assert ref.triples_of_rows(kept) == slow_kept
            assert ref.crossings_of_rows(crossings) == slow_crossings

    @given(random_grammar(leaf=ROW_LEAF), st.sampled_from(ROW_FSTS))
    @settings(max_examples=60, deadline=None)
    def test_image_plan_matches_set_kernel(self, g, fst):
        """An image plan's rows, ends, kept triples, crossings, summary
        and size equal the set kernel's, for every root."""
        for root in g.productions:
            plan = plan_image(g, root, fst, summarize=True)
            normalized = g.normalized(root)
            slow = ref.RefPairTable(
                normalized, range(fst.num_states), ref._fst_term_pairs(fst)
            )
            assert slow.solve() == ImagePlan(g, root, fst).solve()
            assert ref.pairs_of_rows(plan.rows) == {
                nt: s for nt, s in slow.pairs.items() if s
            }
            ends = [
                q for q in range(fst.num_states)
                if fst.is_accepting(q) and (fst.start, q) in slow.pairs[root]
            ]
            assert plan.ends == ends
            crossings = {}
            kept = slow.reachable_triples(root, fst.start, ends, crossings)
            assert ref.triples_of_rows(plan.reachable) == kept
            assert ref.crossings_of_rows(plan.crossings) == crossings
            assert plan.size == (len(kept) + 2 if kept else 1)
            assert _summarize(plan) == ref.ref_summary(
                fst, normalized, root, ends, kept, crossings
            )

    def test_exploding_literal_raises_at_plan_time(self):
        """A literal with more than 64 transducer outputs raises
        :class:`FSTExplosion` from the plan, before anything is built."""
        fst = FST()
        state = fst.new_state()
        for out in ("x", "y"):
            fst.add_transition(state, CharSet.any_char(), (out,), state)
        g = Grammar()
        root = g.fresh("S")
        g.start = root
        g.add(root, (Lit("abcdefg"), root))
        g.add(root, ())
        with pytest.raises(FSTExplosion):
            plan_image(g, root, fst)
        slow = ref.RefPairTable(
            g.normalized(root), range(fst.num_states), ref._fst_term_pairs(fst)
        )
        with pytest.raises(FSTExplosion):
            slow.solve()


def _separate_token_class(g: Grammar, nt):
    """The token class of ``nt`` from five separate queries, each on a
    fresh copy of ``nt``'s subgrammar (so no table is shared), in the
    bridge's class order."""

    def subset_of_complement(dfa) -> bool:
        return intersection_is_empty(g.subgrammar(nt), nt, dfa)

    if nt not in g.trim(nt).productive():
        return None
    if subset_of_complement(bridge._NUMBER_COMPLEMENT):
        return [("NUMBER",)]
    if subset_of_complement(bridge._SIGNED_NUMBER_COMPLEMENT):
        return [("NUMBER",), ("-", "NUMBER")]
    if subset_of_complement(bridge._STRING_COMPLEMENT):
        return [("STRING",)]
    if subset_of_complement(bridge._IDENT_COMPLEMENT):
        if subset_of_complement(bridge._KEYWORDS_DFA):
            return [("IDENT",)]
    return None


class TestTokenClassesPerScope:
    @given(random_grammar(leaf=SQL_LEAF))
    @settings(max_examples=150, deadline=None)
    def test_per_scope_classes_match_separate_queries(self, g):
        bridge._ensure_dfas()
        before = _tables_built()
        per_scope = {nt: bridge._atomic_productions(g, nt) for nt in g.productions}
        # at most one table per class automaton for the whole scope
        assert _tables_built() - before <= 5
        expected = {nt: _separate_token_class(g, nt) for nt in g.productions}
        assert per_scope == expected


# -- char-level Earley membership vs. the span-table reference ----------------


@st.composite
def membership_case(draw):
    """A random grammar over either leaf set, with the degenerate shapes
    the lowering must keep: an ε-only nonterminal, a unit cycle back to
    the start, and a production-less reference (the empty language)."""
    g = draw(random_grammar(leaf=draw(st.sampled_from((AB_LEAF, SQL_LEAF)))))
    eps, unit_a, unit_b, label = (
        g.fresh(name) for name in ("Eps", "U", "V", "L")
    )
    g.add(eps, ())
    g.add(unit_a, (unit_b,))
    g.add(unit_b, (unit_a,))
    g.add(unit_b, (g.start,))
    root = g.fresh("R")
    for rhs in draw(
        st.lists(
            st.sampled_from((
                (g.start,),
                (eps, g.start, eps),
                (unit_a,),
                (label,),
                (g.start, label),
                (eps,),
            )),
            min_size=1,
            max_size=3,
        )
    ):
        g.add(root, rhs)
    return g, root


def _membership_queries(g, root) -> list[str]:
    """Members from the shortest-first sampler, plus one-character mutations and
    truncations of each (near misses on both sides of the boundary)."""
    queries = set()
    for text in g.shortest_strings(root, limit=6):
        queries.add(text)
        for i in range(len(text) + 1):
            queries.add(text[:i])
            for char in "ab7'x":
                queries.add(text[:i] + char + text[i:])
                if i < len(text):
                    queries.add(text[:i] + char + text[i + 1:])
    return sorted(queries)


class TestCharMembershipReference:
    @given(membership_case())
    @settings(max_examples=80, deadline=None)
    def test_char_membership_matches_generates(self, case):
        g, root = case
        for nt in (root, g.start):
            prepared = char_token_grammar(g, nt)
            for text in _membership_queries(g, nt):
                expected = ref.ref_generates(g, nt, text)
                assert char_membership(prepared, text) == expected, (nt, text)

    def test_degenerate_roots(self):
        g = Grammar()
        eps, unit_a, unit_b, label = (
            g.fresh(name) for name in ("Eps", "U", "V", "L")
        )
        g.add(eps, ())
        g.add(unit_a, (unit_b,))
        g.add(unit_b, (unit_a,))
        g.add(unit_b, (Lit("a"),))
        for nt, members in ((eps, {""}), (unit_a, {"a"}), (label, set())):
            prepared = char_token_grammar(g, nt)
            for text in ("", "a", "aa", "b"):
                expected = text in members
                assert ref.ref_generates(g, nt, text) == expected
                assert char_membership(prepared, text) == expected
