"""The extended registry: histograms, bucket conventions, merge algebra.

The old three-section shape (counters/timers/gauges) is pinned by
``tests/test_perf.py``; these tests cover what the observability layer
added — fixed-bucket histograms, the deterministic merge over them, and
the derived cache-effectiveness view — plus the contract that merging
worker deltas in page order is order-insensitive in its totals.
"""

import pytest

from repro.obs.metrics import (
    BYTES_BUCKETS,
    SECONDS_BUCKETS,
    SIZE_BUCKETS,
    MetricsRegistry,
    buckets_for,
    cache_rates,
    histogram_quantile,
    render_table,
)


class TestBucketConventions:
    def test_seconds_names_get_latency_buckets(self):
        assert buckets_for("policy.verdict_lookup_seconds") == SECONDS_BUCKETS
        assert buckets_for("server.request_seconds") == SECONDS_BUCKETS

    def test_bytes_names_get_payload_buckets(self):
        assert buckets_for("ipc.page_bytes") == BYTES_BUCKETS

    def test_everything_else_gets_size_buckets(self):
        assert buckets_for("grammar.productions") == SIZE_BUCKETS


class TestHistograms:
    def test_observations_land_in_the_right_buckets(self):
        registry = MetricsRegistry()
        registry.observe("x", 0.5, buckets=(1, 10, 100))
        registry.observe("x", 5)
        registry.observe("x", 1000)  # overflow bucket
        hist = registry.snapshot()["histograms"]["x"]
        assert hist["bounds"] == [1, 10, 100]
        assert hist["counts"] == [1, 1, 0, 1]
        assert hist["count"] == 3
        assert hist["sum"] == pytest.approx(1005.5)

    def test_boundary_value_lands_at_its_bound(self):
        registry = MetricsRegistry()
        registry.observe("x", 10, buckets=(1, 10, 100))
        assert registry.snapshot()["histograms"]["x"]["counts"] == [0, 1, 0, 0]

    def test_bounds_fixed_at_first_observation(self):
        registry = MetricsRegistry()
        registry.observe("x", 2, buckets=(1, 10))
        registry.observe("x", 3, buckets=(5, 50))  # ignored: already fixed
        assert registry.snapshot()["histograms"]["x"]["bounds"] == [1, 10]

    def test_snapshot_has_no_histogram_section_when_none_observed(self):
        registry = MetricsRegistry()
        registry.incr("n")
        assert "histograms" not in registry.snapshot()

    def test_latency_context_manager_records_one_observation(self):
        registry = MetricsRegistry()
        with registry.latency("op_seconds"):
            pass
        hist = registry.snapshot()["histograms"]["op_seconds"]
        assert hist["count"] == 1
        assert list(hist["bounds"]) == list(SECONDS_BUCKETS)

    def test_quantile_upper_bound_estimate(self):
        registry = MetricsRegistry()
        for value in (0.5, 0.5, 5, 50, 5000):
            registry.observe("x", value, buckets=(1, 10, 100))
        hist = registry.snapshot()["histograms"]["x"]
        assert histogram_quantile(hist, 0.5) == 10.0
        # the 0.99 quantile falls in the overflow bucket: mean bound
        assert histogram_quantile(hist, 0.99) == pytest.approx(5056.0 / 5)

    def test_quantile_of_empty_histogram_is_none(self):
        assert (
            histogram_quantile(
                {"bounds": (1,), "counts": [0, 0], "sum": 0.0, "count": 0}, 0.5
            )
            is None
        )


class TestDiffAndMerge:
    def _delta(self, values, name="x", buckets=(1, 10, 100)):
        registry = MetricsRegistry()
        before = registry.snapshot()
        for value in values:
            registry.observe(name, value, buckets=buckets)
        return registry.diff(before)

    def test_histogram_diff_subtracts_elementwise(self):
        registry = MetricsRegistry()
        registry.observe("x", 5, buckets=(1, 10))
        before = registry.snapshot()
        registry.observe("x", 5)
        registry.observe("x", 0.5)
        delta = registry.diff(before)["histograms"]["x"]
        assert delta["counts"] == [1, 1, 0]
        assert delta["count"] == 2

    def test_unchanged_histogram_drops_from_diff(self):
        registry = MetricsRegistry()
        registry.observe("x", 5, buckets=(1, 10))
        before = registry.snapshot()
        registry.incr("other")
        assert "histograms" not in registry.diff(before)

    def test_merge_is_order_insensitive(self):
        """The page-order merge convention is about determinism of the
        sequence; the totals must not depend on it at all."""
        deltas = [
            self._delta([0.5, 5]),
            self._delta([50, 5000]),
            self._delta([5]),
        ]
        for delta, values in zip(deltas, ([3], [7], [11])):
            delta["counters"] = {"n": values[0]}
            delta["gauges"] = {"peak": float(values[0])}

        forward = MetricsRegistry()
        for delta in deltas:
            forward.merge(delta)
        backward = MetricsRegistry()
        for delta in reversed(deltas):
            backward.merge(delta)
        assert forward.snapshot() == backward.snapshot()
        assert forward.snapshot()["counters"]["n"] == 21
        assert forward.snapshot()["gauges"]["peak"] == 11.0
        assert forward.snapshot()["histograms"]["x"]["count"] == 5

    def test_merge_of_diffs_equals_direct_recording(self):
        """Worker-shipped deltas folded into the driver reproduce what
        one process recording everything would have seen."""
        direct = MetricsRegistry()
        driver = MetricsRegistry()
        for chunk in ([0.5, 5], [50], [5000, 5]):
            for value in chunk:
                direct.observe("x", value, buckets=(1, 10, 100))
            driver.merge(self._delta(chunk))
        assert driver.snapshot() == direct.snapshot()

    def test_mismatched_bounds_fold_through_sum_and_count(self):
        driver = MetricsRegistry()
        driver.observe("x", 5, buckets=(1, 10))
        driver.merge(self._delta([7], buckets=(2, 20)))
        hist = driver.snapshot()["histograms"]["x"]
        assert hist["bounds"] == [1, 10]
        assert hist["count"] == 2
        assert hist["sum"] == pytest.approx(12.0)


class TestDerivedViews:
    def test_cache_rates_cover_verdict_memo_and_image_replays(self):
        counters = {
            "policy.verdict_cache.hits": 30,
            "policy.verdict_cache.misses": 10,
            "image.cache.hits": 8,
            "image.cache.misses": 2,
            "image.cache.replays": 123,
        }
        rows = {label: (hits, misses, rate, extras)
                for label, hits, misses, rate, extras in cache_rates(counters)}
        assert rows["verdict memo"][2] == pytest.approx(0.75)
        assert rows["image cache"][2] == pytest.approx(0.8)
        assert rows["image cache"][3] == {"image.cache.replays": 123}

    def test_idle_caches_are_omitted(self):
        assert cache_rates(
            {"policy.verdict_cache.hits": 0, "policy.verdict_cache.misses": 0}
        ) == []

    def test_render_table_shows_histograms_and_cache_effectiveness(self):
        registry = MetricsRegistry()
        registry.incr("policy.verdict_cache.hits", 3)
        registry.incr("policy.verdict_cache.misses", 1)
        registry.incr("image.cache.hits", 1)
        registry.incr("image.cache.misses", 1)
        registry.incr("image.cache.replays", 42)
        registry.observe("lookup_seconds", 0.002)
        table = render_table(registry.snapshot())
        assert "cache effectiveness:" in table
        assert "verdict memo" in table and "75.0% hit" in table
        assert "replays=42" in table
        assert "histograms" in table and "lookup_seconds" in table
