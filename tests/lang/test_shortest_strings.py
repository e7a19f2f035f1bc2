"""``Grammar.shortest_strings``: the report samples of every cascade.

The search pops leftmost sentential forms by the length of their
shortest completion, so its strings are the shortest members of
L(root) (over the charset choices the breadth-first sampler also uses),
in non-decreasing length.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.analysis.analyzer import _check_spot, entry_pages
from repro.analysis.policies import PolicyConfig
from repro.analysis.policies.registry import REGISTRY
from repro.analysis.stringtaint import StringTaintAnalysis
from repro.corpus import APPS, build_app
from repro.lang.charset import CharSet
from repro.lang.earley import char_membership, char_token_grammar
from repro.lang.grammar import Grammar, Lit
from repro.obs.metrics import PERF

SRC = Path(__file__).resolve().parents[2] / "src"


def budget_cuts() -> int:
    return PERF.snapshot()["counters"].get("samples.budget_cuts", 0)


class TestTermination:
    def test_nullable_recursion_terminates(self):
        # A → A B | ε with B nullable: every form A B^k has priority 0
        g = Grammar()
        a = g.fresh("A")
        b = g.fresh("B")
        g.add(a, (a, b))
        g.add(a, ())
        g.add(b, ())
        g.add(b, (Lit("b"),))
        before = budget_cuts()
        assert g.shortest_strings(a, limit=3) == ["", "b", "bb"]
        assert budget_cuts() == before

    def test_unproductive_alternatives_are_skipped(self):
        g = Grammar()
        s = g.fresh("S")
        loop = g.fresh("L")
        g.add(s, (loop, Lit("never")))
        g.add(s, (Lit("ok"),))
        g.add(s, (CharSet.empty(), Lit("x")))
        g.add(loop, (Lit("b"), loop))
        before = budget_cuts()
        assert g.shortest_strings(s, limit=3) == ["ok"]
        assert budget_cuts() == before

    def test_empty_language_gives_nothing(self):
        g = Grammar()
        s = g.fresh("S")
        loop = g.fresh("L")
        g.add(s, (Lit("a"), loop))
        g.add(loop, (loop, Lit("b")))
        before = budget_cuts()
        assert g.shortest_strings(s, limit=3) == []
        assert g.shortest_strings(g.fresh("undefined"), limit=3) == []
        assert budget_cuts() == before

    def test_budget_cut_is_counted(self):
        # L(S) = {x}, but A and B rewrite into each other at priority 1
        # without bound, and each dies only at the end of a 31-step
        # chain: the equal-priority frontier outgrows the pop budget
        g = Grammar()
        s = g.fresh("S")
        a = g.fresh("A")
        b = g.fresh("B")
        g.add(s, (a, Lit("x")))
        g.add(a, (a, b))
        g.add(b, (b, a))
        chain = g.fresh("c")
        g.add(a, (chain,))
        g.add(b, (chain,))
        for _ in range(30):
            step = g.fresh("c")
            g.add(chain, (step,))
            chain = step
        g.add(chain, ())
        before = budget_cuts()
        assert g.shortest_strings(s, limit=3) == ["x"]
        assert budget_cuts() == before + 1


@st.composite
def finite_grammar(draw):
    """A random acyclic grammar whose charsets the sampler covers fully
    (singletons, ``'``/``-``), so ``enumerate_finite`` lists the same
    language the search explores."""
    nt_count = draw(st.integers(1, 4))
    g = Grammar()
    nts = [g.fresh(f"N{i}") for i in range(nt_count)]
    g.start = nts[0]
    leaf = st.sampled_from(
        [Lit("a"), Lit("bc"), Lit("'"), CharSet.of("x"), CharSet.of("'-")]
    )
    for index, nt in enumerate(nts):
        for _ in range(draw(st.integers(1, 3))):
            symbols = draw(
                st.lists(
                    st.one_of(leaf, st.sampled_from(nts[index + 1 :] or [Lit("z")])),
                    max_size=3,
                )
            )
            g.add(nt, tuple(symbols))
    return g


class TestShortestOfFiniteLanguages:
    @given(finite_grammar(), st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_matches_enumeration(self, g, limit):
        language = g.enumerate_finite(g.start, max_strings=400)
        assume(language is not None)
        got = g.shortest_strings(g.start, limit=limit)
        by_length = sorted(language, key=len)
        assert len(got) == len(set(got)) == min(limit, len(language))
        assert set(got) <= set(language)
        lengths = [len(text) for text in got]
        assert lengths == sorted(lengths)
        assert lengths == [len(text) for text in by_length[:limit]]
        # only ties at the longest length may be chosen among
        if got:
            longest = lengths[-1]
            assert {t for t in language if len(t) < longest} <= set(got)

    def test_ties_pop_in_insertion_order(self):
        g = Grammar()
        s = g.fresh("S")
        for text in ("bb", "a", "cc", "d"):
            g.add(s, (Lit(text),))
        assert g.shortest_strings(s, limit=3) == ["a", "d", "bb"]


def reference_min_lengths(g, root):
    """The round-robin fixpoint ``_min_lengths`` used before Knuth's
    algorithm replaced it."""
    reach = g.reachable(root)
    lengths = {}
    changed = True
    while changed:
        changed = False
        for nt in reach:
            best = lengths.get(nt)
            for rhs in g.productions.get(nt, ()):
                total = 0
                for symbol in rhs:
                    if isinstance(symbol, Lit):
                        total += len(symbol.text)
                    elif isinstance(symbol, CharSet):
                        if symbol.size() == 0:
                            break
                        total += 1
                    else:
                        ref = lengths.get(symbol)
                        if ref is None:
                            break
                        total += ref
                else:
                    if best is None or total < best:
                        best = total
            if best is not None and lengths.get(nt) != best:
                lengths[nt] = best
                changed = True
    return lengths


@st.composite
def cyclic_grammar(draw):
    """Random grammars with cycles, ε rules, empty charsets and
    references to nonterminals without rules."""
    nt_count = draw(st.integers(1, 6))
    g = Grammar()
    nts = [g.fresh(f"N{i}") for i in range(nt_count)]
    g.start = nts[0]
    symbol = st.one_of(
        st.sampled_from(nts + [g.fresh("undefined")]),
        st.sampled_from([Lit("a"), Lit("bcd"), CharSet.of("x"), CharSet.empty()]),
    )
    for nt in nts:
        for _ in range(draw(st.integers(0, 3))):
            g.add(nt, tuple(draw(st.lists(symbol, max_size=4))))
    return g


class TestMinLengths:
    @given(cyclic_grammar())
    @settings(max_examples=200, deadline=None)
    def test_matches_fixpoint(self, g):
        for root in list(g.productions):
            assert g._min_lengths(root) == reference_min_lengths(g, root)

    @given(cyclic_grammar(), st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_samples_are_members_in_length_order(self, g, limit):
        before = budget_cuts()
        got = g.shortest_strings(g.start, limit=limit)
        lengths = [len(text) for text in got]
        assert lengths == sorted(lengths)
        assert len(set(got)) == len(got)
        assert all(g.generates(g.start, text) for text in got)
        shortest = g._min_lengths(g.start).get(g.start)
        if shortest is None:
            assert got == []
        elif got:
            assert lengths[0] == shortest
        else:
            # a shortest derivation of these small grammars never needs
            # 40 pending symbols, so only the pop budget can starve it
            assert budget_cuts() > before


class TestHashSeedIndependence:
    SCRIPT = textwrap.dedent(
        """
        import json
        from repro.lang.charset import CharSet
        from repro.lang.grammar import Grammar, Lit

        g = Grammar()
        s, item, more = g.fresh("S"), g.fresh("I"), g.fresh("M")
        g.add(s, (Lit("SELECT * FROM t WHERE a = '"), item, Lit("'")))
        g.add(item, (CharSet.of("ab'-"), more))
        g.add(item, (CharSet.range("0", "9"), more))
        g.add(more, ())
        g.add(more, (CharSet.of("x-'"), more))
        g.add(more, (Lit("--"), more))
        print(json.dumps(g.shortest_strings(s, limit=8)))
        """
    )

    def test_same_output_under_different_hash_seeds(self):
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=str(SRC))
            proc = subprocess.run(
                [sys.executable, "-c", self.SCRIPT],
                capture_output=True,
                text=True,
                env=env,
                check=True,
            )
            outputs.append(json.loads(proc.stdout))
        assert outputs[0] == outputs[1]
        assert len(outputs[0]) == 8


@pytest.mark.parametrize("app_dir", [app_dir for _, app_dir in APPS])
def test_corpus_samples_are_members_shortest_first(tmp_path, app_dir):
    """Every hotspot of every policy: each ``query_samples`` entry is in
    L(root) by the Earley kernel, no entry is shorter than the one
    before it, and no walk runs out of its pop budget."""
    build_app(tmp_path, app_dir)
    root = tmp_path / app_dir
    config = PolicyConfig(enabled=tuple(REGISTRY))
    checked = 0
    before = budget_cuts()
    for page in entry_pages(root):
        analysis = StringTaintAnalysis(root, policies=config)
        result = analysis.analyze_file(page)
        for spot in result.hotspots:
            report = _check_spot(result.grammar, spot, config)
            samples = report.query_samples
            lengths = [len(text) for text in samples]
            assert lengths == sorted(lengths), (page, spot.line, samples)
            if not samples:
                continue
            prepared = char_token_grammar(result.grammar, spot.query.nt)
            for text in samples:
                assert char_membership(prepared, text), (page, spot.line, text)
            checked += 1
    assert checked > 0
    assert budget_cuts() == before
