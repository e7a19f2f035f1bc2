"""Deferred transducer images: the plan's summary is exact, its size
bound is a lower bound, a sanitizer event's ``after`` is the
transducer's output on its ``before``, and a forced image is the eager
one.

Random grammars over {a, b} (with ε rules, unit cycles and labels)
meet transducers covering COPY and LOWER charset outputs, deletions,
multi-character outputs, final flushes and a nondeterministic
transducer whose literal runs have several outputs.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import absdom
from repro.analysis.absdom import GrammarBuilder
from repro.lang.charset import CharSet
from repro.lang.fst import COPY, FST
from repro.lang.grammar import DIRECT, INDIRECT, Grammar, Lit
from repro.analysis.provenance import trace_provenance
from repro.lang.image import (
    IMAGE_CACHE,
    DeferredImage,
    _summarize,
    fst_image,
    plan_image,
)
from repro.obs.metrics import PERF

LEAF = st.one_of(
    st.sampled_from([Lit("a"), Lit("b"), Lit("ab"), Lit("bA")]),
    st.just(CharSet.of("ab")),
    st.just(CharSet.of("AB")),
)


def _maybe_drop_a() -> FST:
    """Nondeterministic: every ``a`` is copied or dropped, so a literal
    run from one state pair has several outputs."""
    fst = FST()
    fst.add_transition(0, CharSet.any_char(), (COPY,), 0)
    fst.add_transition(0, CharSet.of("a"), ("",), 0)
    fst.accepts = {0}
    return fst


FSTS = [
    FST.identity(),
    FST.lowercase(),
    FST.delete_chars(CharSet.of("a")),
    FST.escape_chars(CharSet.of("ab")),
    FST.replace_string("ab", "X"),
    FST.replace_string("aa", "b"),
    _maybe_drop_a(),
]


@st.composite
def labeled_grammar(draw):
    """A small random grammar with labels; start is productive."""
    count = draw(st.integers(2, 4))
    g = Grammar()
    nts = [g.fresh(f"N{i}") for i in range(count)]
    g.start = nts[0]
    for nt in nts:
        g.add(nt, tuple(draw(st.lists(LEAF, max_size=2))))
        for _ in range(draw(st.integers(0, 3))):
            symbols = draw(
                st.lists(st.one_of(LEAF, st.sampled_from(nts)), min_size=1, max_size=3)
            )
            g.add(nt, tuple(symbols))
        for label in draw(st.lists(st.sampled_from([DIRECT, INDIRECT]), max_size=2)):
            g.add_label(nt, label)
    return g


def _label_union(grammar: Grammar) -> frozenset:
    found = set()
    for labels in grammar.labels.values():
        found |= labels
    return frozenset(found)


class TestPlanSummary:
    @given(labeled_grammar(), st.sampled_from(FSTS))
    @settings(max_examples=80, deadline=None)
    def test_summary_is_exact_and_size_is_a_lower_bound(self, g, fst):
        IMAGE_CACHE.clear()
        image, start = fst_image(g, g.start, fst)
        plan = plan_image(g, g.start, fst, summarize=True)
        closure, labels = _summarize(plan)
        assert closure == image.charset_closure(start)
        assert labels == _label_union(image)
        # as a page operand the image also has its alias rule
        assert plan.size <= 1 + image.num_productions()

    @given(labeled_grammar(), st.sampled_from(FSTS))
    @settings(max_examples=60, deadline=None)
    def test_built_deferred_image_is_the_eager_one(self, g, fst):
        IMAGE_CACHE.clear()
        eager, eager_start = fst_image(g, g.start, fst)
        for _ in ("planned", "replayed"):
            IMAGE_CACHE.clear()
            deferred = fst_image(g, g.start, fst, defer_above=0)
            assert isinstance(deferred, DeferredImage)
            assert deferred.closure == eager.charset_closure(eager_start)
            assert deferred.labels == _label_union(eager)
            # a second deferral hits the summary-only memo entry
            again = fst_image(g, g.start, fst, defer_above=0)
            assert isinstance(again, DeferredImage)
            built, start = deferred.build()
            assert _shape(built, start) == _shape(eager, eager_start)
            rebuilt, restart = again.build()
            assert _shape(rebuilt, restart) == _shape(eager, eager_start)


class TestSanitizerAfter:
    """A sanitizer event's ``after`` is the transducer's output on its
    ``before``, recorded when the image is taken, so a deferred image
    and a built one report the same event."""

    @pytest.mark.parametrize("app_dir", ["tiger_php_news", "utopia_news_pro"])
    def test_after_is_the_fst_output_on_before(self, tmp_path, app_dir):
        from repro.analysis.analyzer import entry_pages, run_pages
        from repro.analysis.policies import PolicyConfig
        from repro.analysis.policies.registry import REGISTRY
        from repro.analysis.policy import VERDICT_CACHE
        from repro.corpus import build_app

        build_app(tmp_path, app_dir)
        root = tmp_path / app_dir
        seen = []
        image = GrammarBuilder.image

        def recording(builder, value, fst, hint="fx"):
            result = image(builder, value, fst, hint)
            deferred = result.nt in builder._deferred
            seen.append((builder.grammar.origins[result.nt], fst, deferred))
            return result

        VERDICT_CACHE.clear()
        IMAGE_CACHE.clear()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(GrammarBuilder, "image", recording)
            run_pages(
                root, entry_pages(root), audit=True, jobs=1,
                policies=PolicyConfig(enabled=tuple(REGISTRY)),
            )
        assert {deferred for _, _, deferred in seen} == {True, False}
        for event, fst, _ in seen:
            assert event["kind"] == "sanitizer"
            outputs = fst.apply_to_string(event["before"])
            assert event["after"] == min(outputs, default=""), event
            assert not outputs or event["after"] in outputs


def _shape(grammar: Grammar, start) -> tuple:
    """Everything of an image but nonterminal identity: names, rule
    order, labels, in insertion order."""
    def show(symbol):
        return symbol.name if hasattr(symbol, "uid") else symbol

    return (
        start.name,
        [
            (nt.name, [tuple(show(s) for s in rhs) for rhs in rules])
            for nt, rules in grammar.productions.items()
        ],
        sorted((nt.name, sorted(labels)) for nt, labels in grammar.labels.items()),
    )


# -- forced images inside the builder ------------------------------------------


def _page_state(builder: GrammarBuilder, roots) -> tuple:
    """The page grammar as every reader sees it: the nonterminals
    reachable from ``roots`` in uid order, with their rules, labels,
    provenance edges and origin events."""
    grammar = builder.grammar
    keep = set()
    for root in roots:
        keep |= grammar.reachable(root)
    order = sorted(keep)

    def show(symbol):
        return symbol.name if hasattr(symbol, "uid") else symbol

    return [
        (
            nt.name,
            [tuple(show(s) for s in rhs) for rhs in grammar.productions.get(nt, ())],
            sorted(grammar.labels.get(nt, ())),
            [show(i) for i in grammar.prov_inputs.get(nt, ())],
            grammar.origins.get(nt),
        )
        for nt in order
    ]


def _concat(builder: GrammarBuilder, values):
    return builder.concat_all(values)


def _widened(builder: GrammarBuilder, values):
    return builder.widen(builder.concat_all(values))


def _build_chain(g: Grammar, fsts, threshold: int, defer: bool, read=_concat):
    """Import ``g`` into a builder and image it through ``fsts``; the
    query ``read`` takes every intermediate value: the default
    concatenates them, so all of them stay reachable over productions.  Returns
    ``(builder, query root, deferred count)``."""
    IMAGE_CACHE.clear()
    builder = GrammarBuilder(widen_threshold=threshold)
    operand = builder._absorb(g.subgrammar(g.start), g.start, "in")
    values = [operand]
    with pytest.MonkeyPatch.context() as patch:
        if not defer:
            patch.setattr(
                absdom, "fst_image",
                lambda grammar, root, fst, defer_above=None: fst_image(grammar, root, fst),
            )
        for fst in fsts:
            values.append(builder.image(values[-1], fst, "fx"))
        deferred = len(builder._deferred)
        query = read(builder, values)
        builder.settle([query.nt])
    return builder, query.nt, deferred


class TestForcedImage:
    @given(
        labeled_grammar(),
        st.lists(st.sampled_from(FSTS), min_size=1, max_size=3),
        st.integers(0, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_forced_equals_eager(self, g, fsts, threshold):
        eager, eager_root, _ = _build_chain(g, fsts, threshold, False)
        lazy, lazy_root, deferred = _build_chain(g, fsts, threshold, True)
        assert not lazy._deferred  # the query reaches every value
        assert _page_state(lazy, [lazy_root]) == _page_state(eager, [eager_root])
        assert lazy.grammar.num_productions() == eager.grammar.num_productions()

    @given(
        labeled_grammar(),
        st.lists(st.sampled_from(FSTS), min_size=1, max_size=3),
        st.integers(0, 12),
    )
    @settings(max_examples=60, deadline=None)
    def test_images_traced_only_through_a_widening_stay_unbuilt(
        self, g, fsts, threshold
    ):
        """A query that widens the values reaches the deferred images
        over ``prov_inputs`` edges only: none is forced, and the origin
        events and provenance are the eager run's."""
        eager, eager_root, _ = _build_chain(g, fsts, threshold, False, _widened)
        before = PERF.snapshot()["counters"].get("image.forced", 0)
        lazy, lazy_root, deferred = _build_chain(g, fsts, threshold, True, _widened)
        assert PERF.snapshot()["counters"].get("image.forced", 0) == before
        assert len(lazy._deferred) == deferred

        def events(builder):
            return [list(event.items()) for event in builder.grammar.origins.values()]

        assert events(lazy) == events(eager)
        assert (
            trace_provenance(lazy.grammar, lazy_root).as_dict()
            == trace_provenance(eager.grammar, eager_root).as_dict()
        )
