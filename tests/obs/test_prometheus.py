"""The Prometheus text exposition and its metric-name contract."""

from repro.obs.metrics import MetricsRegistry
from repro.obs.prometheus import metric_name, render_prometheus


def _registry():
    registry = MetricsRegistry()
    registry.incr("pages.analyzed", 7)
    registry.incr("server.requests.analyze", 3)
    registry.incr("server.requests.ping", 1)
    registry.incr("policy.verdict_cache.hits", 9)
    registry.incr("policy.verdict_cache.misses", 1)
    registry.add_time("phase2.checks", 1.25)
    registry.gauge("image.cache.size", 12)
    registry.observe("server.request_seconds", 0.003)
    registry.observe("server.request_seconds", 0.3)
    return registry


class TestNames:
    def test_prefix_and_dot_translation(self):
        assert metric_name("pages.analyzed") == "sqlciv_pages_analyzed"
        assert metric_name("image.cache.size") == "sqlciv_image_cache_size"

    def test_invalid_characters_are_sanitized(self):
        assert metric_name("cascade:sql") == "sqlciv_cascade_sql"


class TestExposition:
    def test_counters_get_total_suffix(self):
        text = render_prometheus(_registry().snapshot())
        assert "sqlciv_pages_analyzed_total 7" in text

    def test_request_counters_fold_into_op_labels(self):
        text = render_prometheus(_registry().snapshot())
        assert 'sqlciv_server_requests_total{op="analyze"} 3' in text
        assert 'sqlciv_server_requests_total{op="ping"} 1' in text
        assert "# TYPE sqlciv_server_requests_total counter" in text

    def test_timers_become_seconds_total_counters(self):
        text = render_prometheus(_registry().snapshot())
        assert "sqlciv_phase2_checks_seconds_total 1.25" in text

    def test_histograms_have_cumulative_buckets_and_inf(self):
        text = render_prometheus(_registry().snapshot())
        assert "# TYPE sqlciv_server_request_seconds histogram" in text
        assert 'sqlciv_server_request_seconds_bucket{le="0.005"} 1' in text
        assert 'sqlciv_server_request_seconds_bucket{le="0.5"} 2' in text
        assert 'sqlciv_server_request_seconds_bucket{le="+Inf"} 2' in text
        assert "sqlciv_server_request_seconds_count 2" in text

    def test_cache_hit_ratio_gauges_are_derived(self):
        text = render_prometheus(_registry().snapshot())
        assert 'sqlciv_cache_hit_ratio{cache="verdict_memo"} 0.9' in text
        assert 'cache="prefilter"' not in text

    def test_extra_gauges_are_current_values(self):
        text = render_prometheus(
            _registry().snapshot(),
            extra_gauges={"resident.projects": 1, "resident.pages": 35},
        )
        assert "sqlciv_resident_projects 1" in text
        assert "sqlciv_resident_pages 35" in text

    def test_exposition_ends_with_newline(self):
        assert render_prometheus(_registry().snapshot()).endswith("\n")
