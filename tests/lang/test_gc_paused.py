"""The collector pause around the grammar kernels (DESIGN.md "Collector
pauses").

``gc_paused`` must always hand the collector back in the state it found
it, and the operations it wraps must build no reference cycles: a cycle
allocated while the collector is off would outlive the pause until the
next full collection, so "pausing never holds back real garbage" is
checked here as ``gc.collect() == 0`` after running them paused.
"""

import gc
import sys
import threading

import pytest

from repro.analysis.absdom import GrammarBuilder
from repro.analysis.analyzer import _check_spot, entry_pages
from repro.analysis.policies import PolicyConfig
from repro.analysis.policies.base import contains_any
from repro.analysis.policies.registry import REGISTRY
from repro.analysis.policy import VERDICT_CACHE, check_hotspot
from repro.analysis.stringtaint import StringTaintAnalysis
from repro.corpus import build_app
from repro.lang.charset import CharSet
from repro.lang.fst import FST
from repro.lang.grammar import gc_paused
from repro.lang.image import IMAGE_CACHE


@pytest.fixture(autouse=True)
def collector_enabled():
    """Every test starts and must end with the collector on."""
    gc.enable()
    yield
    enabled = gc.isenabled()
    gc.enable()
    assert enabled, "a test left the cyclic collector disabled"


@gc_paused
def _observe():
    return gc.isenabled()


@gc_paused
def _raise():
    raise ValueError("boom")


@gc_paused
def _nested():
    return _observe(), gc.isenabled()


def test_pause_restores_after_return():
    assert _observe() is False
    assert gc.isenabled()


def test_pause_restores_after_exception():
    with pytest.raises(ValueError, match="boom"):
        _raise()
    assert gc.isenabled()


def test_nested_pause_keeps_outer_pause():
    assert _nested() == (False, False)
    assert gc.isenabled()


def test_caller_disabled_collector_stays_disabled():
    gc.disable()
    try:
        assert _observe() is False
        assert not gc.isenabled()
        with pytest.raises(ValueError):
            _raise()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_wrapper_keeps_name_and_docstring():
    assert check_hotspot.__name__ == "check_hotspot"
    assert "cascade" in check_hotspot.__doc__
    assert GrammarBuilder.image.__name__ == "image"
    assert GrammarBuilder.refine.__name__ == "refine"


@pytest.mark.parametrize("a_leaves_first", [True, False])
def test_concurrent_threads_end_with_collector_enabled(a_leaves_first):
    """Two threads overlap their paused calls; whichever order they
    leave in, the collector is on once both are out."""
    a_in = threading.Event()
    b_in = threading.Event()
    a_go = threading.Event()
    b_go = threading.Event()
    errors = []

    @gc_paused
    def hold(entered, release):
        entered.set()
        if not release.wait(10):
            errors.append("timed out")

    a = threading.Thread(target=hold, args=(a_in, a_go))
    b = threading.Thread(target=hold, args=(b_in, b_go))
    a.start()
    assert a_in.wait(10)
    b.start()
    assert b_in.wait(10)
    assert not gc.isenabled()
    first, second = (a, b) if a_leaves_first else (b, a)
    (a_go if a_leaves_first else b_go).set()
    first.join(10)
    (b_go if a_leaves_first else a_go).set()
    second.join(10)
    assert not errors
    assert gc.isenabled()


def test_many_threads_racing_paused_calls_leave_collector_enabled():
    """More threads than cores, a tiny switch interval, thousands of
    overlapping enter/leave pairs: the collector ends enabled."""

    @gc_paused
    def churn():
        return [(i,) for i in range(50)]

    def loop():
        for _ in range(500):
            churn()

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=loop) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert gc.isenabled()


def test_paused_operations_build_no_cycles(tmp_path):
    """Phase 2 on every hotspot of one corpus app under all six
    policies, plus a str_replace chain through ``image`` (with
    widening) and ``refine``, leave nothing for the cyclic collector."""
    build_app(tmp_path, "eve_activity_tracker")
    root = tmp_path / "eve_activity_tracker"
    config = PolicyConfig(enabled=tuple(REGISTRY))
    results = [
        StringTaintAnalysis(root, policies=config).analyze_file(page)
        for page in entry_pages(root)
    ]
    hotspots = [(r.grammar, spot) for r in results for spot in r.hotspots]
    assert len(hotspots) > 20
    VERDICT_CACHE.clear()
    IMAGE_CACHE.clear()
    gc.collect()
    gc.disable()
    try:
        for grammar, spot in hotspots:
            _check_spot(grammar, spot, config)
        builder = GrammarBuilder(widen_threshold=12)
        value = builder.join(
            [builder.literal("a'b\"c"), builder.charset_star(CharSet.of("ab'<"))]
        )
        for search, replacement in [("'", "\\'"), ("a", "bb"), ("<", "&lt;")]:
            value = builder.image(
                value, FST.replace_string(search, replacement), "replace"
            )
        builder.refine(value, contains_any("'").complement())
        assert gc.collect() == 0
    finally:
        gc.enable()
