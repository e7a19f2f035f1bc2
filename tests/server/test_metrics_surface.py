"""The daemon's live metrics surface.

Three access paths, one source of truth (``PERF`` + the daemon's
resident gauges):

* the ``metrics`` op (JSON snapshot, or the Prometheus text exposition
  with ``format="prometheus"``),
* the ``status`` op's ``resident``/``cache_hit_rates`` summary,
* the HTTP ``GET /metrics`` endpoint behind ``--metrics-addr``.
"""

import urllib.error
import urllib.request

import pytest

from repro.obs.metrics import PERF
from repro.server.client import ServerError
from repro.server.daemon import start_metrics_server

SIMPLE_PHP = "<?php mysql_query(\"SELECT * FROM t WHERE id = '\" . $_GET['id'] . \"'\"); ?>"


@pytest.fixture(autouse=True)
def _fresh_perf():
    """The registry is a process global; exact-count assertions need it
    clean of whatever earlier tests in this process recorded."""
    PERF.reset()
    yield
    PERF.reset()


@pytest.fixture
def tiny_app(tmp_path):
    app = tmp_path / "app"
    app.mkdir()
    (app / "index.php").write_text(SIMPLE_PHP)
    (app / "about.php").write_text("<?php mysql_query('SELECT 1'); ?>")
    return app


class TestMetricsOp:
    def test_json_snapshot_has_perf_resident_and_hit_rates(
        self, tiny_app, start_daemon
    ):
        client = start_daemon(tiny_app).client()
        client.analyze()
        client.analyze()  # second run exercises the page memo
        result = client.metrics()
        assert result["perf"]["counters"]["server.requests.analyze"] == 2
        assert result["perf"]["counters"]["pages.analyzed"] == 2
        assert result["resident"]["resident.projects"] == 1
        assert result["resident"]["resident.pages"] == 2
        assert result["uptime_seconds"] >= 0
        assert isinstance(result["cache_hit_rates"], dict)

    def test_request_latency_histogram_accumulates(
        self, tiny_app, start_daemon
    ):
        client = start_daemon(tiny_app).client()
        client.ping()
        client.ping()
        hist = client.metrics()["perf"]["histograms"]["server.request_seconds"]
        # both pings are in the histogram; the metrics request itself is
        # still in flight when the snapshot is taken
        assert hist["count"] == 2
        assert hist["sum"] >= 0

    def test_prometheus_format_returns_the_text_exposition(
        self, tiny_app, start_daemon
    ):
        client = start_daemon(tiny_app).client()
        client.analyze()
        result = client.metrics(format="prometheus")
        assert result["content_type"].startswith("text/plain; version=0.0.4")
        text = result["text"]
        assert 'sqlciv_server_requests_total{op="analyze"} 1' in text
        assert "sqlciv_resident_projects 1" in text
        assert "sqlciv_resident_pages 2" in text
        assert 'sqlciv_server_request_seconds_bucket{le="+Inf"}' in text
        assert "sqlciv_server_request_seconds_count" in text

    def test_invalid_format_is_rejected(self, tiny_app, start_daemon):
        client = start_daemon(tiny_app).client()
        with pytest.raises(ServerError) as excinfo:
            client.metrics(format="xml")
        assert excinfo.value.code == "invalid-params"


class TestStatusSurface:
    def test_status_reports_resident_state_and_hit_rates(
        self, tiny_app, start_daemon
    ):
        client = start_daemon(tiny_app).client()
        client.analyze()
        client.analyze()
        status = client.status()
        assert status["resident"]["resident.pages"] == 2
        assert status["resident"]["server.uptime_seconds"] >= 0
        # run 1 re-analyzed both pages, run 2 replayed both from memo
        assert status["cache_hit_rates"]["server_page_memo"] == 0.5


class TestLayoutBuilds:
    def test_content_edits_keep_the_layout_and_an_addition_rebuilds_it(
        self, tiny_app, start_daemon
    ):
        client = start_daemon(tiny_app).client()
        client.analyze()
        about = tiny_app / "about.php"
        for _ in range(20):
            about.write_text(about.read_text() + "\n")
            assert client.invalidate(["about.php"])["changed"] == ["about.php"]
            client.analyze()
        assert client.status()["layout_builds"] == 1
        text = client.metrics(format="prometheus")["text"]
        assert "sqlciv_server_layout_builds_total 1" in text

        (tiny_app / "new.php").write_text("<?php mysql_query('SELECT 3'); ?>")
        assert client.invalidate(["new.php"])["added"] == ["new.php"]
        assert client.analyze()["pages_total"] == 3
        assert client.status()["layout_builds"] == 2
        text = client.metrics(format="prometheus")["text"]
        assert "sqlciv_server_layout_builds_total 2" in text


class TestHttpEndpoint:
    def _serve(self, daemon):
        server = start_metrics_server(daemon, "127.0.0.1:0")
        host, port = server.server_address[:2]
        return server, f"http://{host}:{port}"

    def test_get_metrics_serves_the_exposition(self, tiny_app, start_daemon):
        harness = start_daemon(tiny_app)
        harness.client().analyze()
        server, base = self._serve(harness.daemon)
        try:
            with urllib.request.urlopen(f"{base}/metrics", timeout=10) as rsp:
                assert rsp.status == 200
                assert rsp.headers["Content-Type"].startswith("text/plain")
                text = rsp.read().decode("utf-8")
        finally:
            server.shutdown()
            server.server_close()
        assert 'sqlciv_server_requests_total{op="analyze"} 1' in text
        assert "sqlciv_cache_hit_ratio" in text or "sqlciv_pages_analyzed_total" in text

    def test_other_paths_are_404(self, tiny_app, start_daemon):
        harness = start_daemon(tiny_app)
        server, base = self._serve(harness.daemon)
        try:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(f"{base}/other", timeout=10)
            # the error carries the open response; close its socket
            excinfo.value.close()
            assert excinfo.value.code == 404
        finally:
            server.shutdown()
            server.server_close()

    def test_bad_addr_is_a_value_error(self, tiny_app, start_daemon):
        harness = start_daemon(tiny_app)
        with pytest.raises(ValueError):
            start_metrics_server(harness.daemon, "127.0.0.1:notaport")
