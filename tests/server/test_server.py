"""End-to-end daemon tests.

The two contracts under test:

* **incrementality** — editing an included-only file re-analyzes exactly
  the pages whose include closure contains it; editing a file nothing
  depends on re-analyzes none;
* **equivalence** — a server-mode ``analyze`` document (and SARIF log)
  is byte-identical to a cold CLI run over the same tree.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.corpus import build_app
from repro.server.client import ServerError

REPO_ROOT = Path(__file__).resolve().parents[2]

SHARED_INC = "<?php $prefix = 'SELECT name FROM users'; ?>"
DETAIL_INC = "<?php $suffix = ' LIMIT 5'; ?>"
INDEX_PHP = (
    "<?php include 'includes/shared.inc';\n"
    "mysql_query($prefix . \" WHERE id = '\" . $_GET['id'] . \"'\"); ?>"
)
DETAIL_PHP = (
    "<?php include 'includes/shared.inc';\n"
    "include 'includes/detail_only.inc';\n"
    "mysql_query($prefix . $suffix); ?>"
)
STANDALONE_PHP = "<?php mysql_query('SELECT 1'); ?>"


@pytest.fixture
def synthetic_app(tmp_path):
    app = tmp_path / "app"
    includes = app / "includes"
    includes.mkdir(parents=True)
    (includes / "shared.inc").write_text(SHARED_INC)
    (includes / "detail_only.inc").write_text(DETAIL_INC)
    (app / "index.php").write_text(INDEX_PHP)
    (app / "detail.php").write_text(DETAIL_PHP)
    (app / "standalone.php").write_text(STANDALONE_PHP)
    (app / "notes.html").write_text("<p>never included</p>")
    return app


def touch(path: Path) -> None:
    path.write_text(path.read_text() + "\n")


class TestIncrementalInvalidation:
    def test_first_analyze_is_cold_then_fully_replayed(
        self, synthetic_app, start_daemon
    ):
        client = start_daemon(synthetic_app).client()
        first = client.analyze()
        assert first["pages_total"] == 3
        assert first["pages_reanalyzed"] == 3
        second = client.analyze()
        assert second["pages_reanalyzed"] == 0
        assert second["pages_replayed"] == 3
        assert second["document"] == first["document"]

    def test_editing_included_only_file_requeues_exactly_dependents(
        self, synthetic_app, start_daemon
    ):
        client = start_daemon(synthetic_app).client()
        client.analyze()
        touch(synthetic_app / "includes" / "detail_only.inc")
        outcome = client.invalidate(["includes/detail_only.inc"])
        assert outcome["invalidated_pages"] == ["detail.php"]
        after = client.analyze()
        assert after["pages_reanalyzed"] == 1
        assert after["pages_replayed"] == 2

    def test_editing_shared_include_requeues_both_dependents(
        self, synthetic_app, start_daemon
    ):
        client = start_daemon(synthetic_app).client()
        client.analyze()
        touch(synthetic_app / "includes" / "shared.inc")
        outcome = client.invalidate(["includes/shared.inc"])
        assert outcome["invalidated_pages"] == ["detail.php", "index.php"]
        assert client.analyze()["pages_reanalyzed"] == 2

    def test_editing_unrelated_file_requeues_none(
        self, synthetic_app, start_daemon
    ):
        client = start_daemon(synthetic_app).client()
        client.analyze()
        touch(synthetic_app / "notes.html")
        outcome = client.invalidate(["notes.html"])
        assert outcome["invalidated_pages"] == []
        assert client.analyze()["pages_reanalyzed"] == 0

    def test_absolute_paths_are_normalized(self, synthetic_app, start_daemon):
        client = start_daemon(synthetic_app).client()
        client.analyze()
        absolute = str(synthetic_app / "includes" / "detail_only.inc")
        outcome = client.invalidate([absolute])
        assert outcome["changed"] == ["includes/detail_only.inc"]
        assert outcome["invalidated_pages"] == ["detail.php"]

    def test_edit_actually_changes_the_replayed_verdicts(
        self, synthetic_app, start_daemon
    ):
        """Not just counters: the re-analyzed page's new content must be
        reflected while untouched pages replay old results."""
        client = start_daemon(synthetic_app).client()
        before = client.analyze()["document"]
        target = synthetic_app / "includes" / "detail_only.inc"
        target.write_text(
            "<?php $suffix = \" WHERE x = '\" . $_GET['x'] . \"'\"; ?>"
        )
        client.invalidate(["includes/detail_only.inc"])
        after = client.analyze()["document"]

        def page(doc, name):
            return next(
                p for p in doc["pages"] if p["page"].endswith(name)
            )

        assert page(before, "detail.php")["verified"] is True
        assert page(after, "detail.php")["verified"] is False
        assert page(after, "index.php") == page(before, "index.php")


class TestRobustInvalidation:
    def test_path_outside_root_is_ignored_not_fatal(
        self, synthetic_app, start_daemon
    ):
        client = start_daemon(synthetic_app).client()
        client.analyze()
        outcome = client.invalidate(
            ["/etc/passwd.php", "../outside.php", "includes/shared.inc"]
        )
        assert len(outcome["ignored"]) == 2
        assert outcome["changed"] == ["includes/shared.inc"]
        # daemon is still alive and consistent
        assert client.ping()["pong"] is True

    def test_non_resolver_visible_extension_is_ignored(
        self, synthetic_app, start_daemon
    ):
        client = start_daemon(synthetic_app).client()
        client.analyze()
        outcome = client.invalidate(["config.ini"])
        assert outcome["ignored"] == ["config.ini"]
        assert outcome["invalidated_pages"] == []

    def test_deleted_include_invalidates_dependents(
        self, synthetic_app, start_daemon
    ):
        client = start_daemon(synthetic_app).client()
        before = client.analyze()
        (synthetic_app / "includes" / "detail_only.inc").unlink()
        outcome = client.invalidate(["includes/detail_only.inc"])
        assert outcome["deleted"] == ["includes/detail_only.inc"]
        assert outcome["invalidated_pages"] == ["detail.php"]
        after = client.analyze()
        assert after["pages_reanalyzed"] == 1
        assert after["pages_total"] == before["pages_total"]

    def test_deleted_entry_page_disappears_from_results(
        self, synthetic_app, start_daemon
    ):
        client = start_daemon(synthetic_app).client()
        assert client.analyze()["pages_total"] == 3
        (synthetic_app / "standalone.php").unlink()
        client.invalidate(["standalone.php"])
        after = client.analyze()
        assert after["pages_total"] == 2
        assert all(
            not p["page"].endswith("standalone.php")
            for p in after["document"]["pages"]
        )

    def test_added_page_is_picked_up_by_next_analyze(
        self, synthetic_app, start_daemon
    ):
        client = start_daemon(synthetic_app).client()
        assert client.analyze()["pages_total"] == 3
        (synthetic_app / "extra.php").write_text(STANDALONE_PHP)
        client.invalidate(["extra.php"])
        after = client.analyze()
        assert after["pages_total"] == 4
        assert after["pages_reanalyzed"] == 1

    def test_analyze_requested_page_outside_root_is_an_error(
        self, synthetic_app, start_daemon
    ):
        client = start_daemon(synthetic_app).client()
        with pytest.raises(ServerError) as excinfo:
            client.analyze(pages=["../evil.php"])
        assert excinfo.value.code == "invalid-params"
        assert client.ping()["pong"] is True


class TestServerState:
    def test_status_reports_graph_and_memo(self, synthetic_app, start_daemon):
        client = start_daemon(synthetic_app).client()
        client.analyze()
        status = client.status()
        assert status["memoized_pages"] == 3
        assert status["depgraph"]["pages"] == 3
        assert status["depgraph"]["files"] == 5  # 3 pages + 2 includes
        assert status["root"] == str(synthetic_app)

    def test_metrics_counters_prove_incrementality(
        self, synthetic_app, start_daemon
    ):
        client = start_daemon(synthetic_app).client()
        client.analyze()
        client.analyze()
        counters = client.metrics()["perf"]["counters"]
        assert counters["server.requests.analyze"] >= 2
        assert counters["server.pages.replayed"] >= 3

    def test_depgraph_persists_alongside_disk_cache(
        self, synthetic_app, tmp_path, start_daemon
    ):
        cache = tmp_path / "cache"
        harness = start_daemon(synthetic_app, cache_dir=cache)
        harness.client().analyze()
        persisted = json.loads((cache / "depgraph.json").read_text())
        assert persisted["format"] == "sqlciv-depgraph/1"
        assert set(persisted["pages"]) == {
            "index.php", "detail.php", "standalone.php"
        }
        assert (
            "includes/shared.inc"
            in persisted["pages"]["index.php"]["deps"]
        )


def run_cli(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


class TestColdRunEquivalence:
    """Server-mode findings vs. a cold CLI run on the corpus app."""

    @pytest.fixture(scope="class")
    def corpus_app(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("server-corpus")
        build_app(root, "eve_activity_tracker")
        return root / "eve_activity_tracker"

    def test_json_and_sarif_byte_identical_to_cold_cli(
        self, corpus_app, tmp_path, start_daemon
    ):
        client = start_daemon(corpus_app).client()
        first = client.analyze(sarif=True)
        # make the daemon replay, then edit one page and go incremental:
        # every configuration must match a fresh cold CLI run byte-for-byte
        replayed = client.analyze(sarif=True)
        touch(corpus_app / "style.php")
        client.invalidate(["style.php"])
        incremental = client.analyze(sarif=True)
        assert incremental["pages_reanalyzed"] == 1
        assert incremental["pages_replayed"] == first["pages_total"] - 1

        cold = run_cli(
            str(corpus_app), "--json", "--sarif", str(tmp_path / "cold.sarif")
        )
        cold_sarif = (tmp_path / "cold.sarif").read_text()
        for label, response in (
            ("first", first), ("replayed", replayed),
            ("incremental", incremental),
        ):
            served_json = json.dumps(response["document"], indent=2) + "\n"
            assert served_json == cold.stdout, f"{label} JSON diverged"
            assert response["sarif"] + "\n" == cold_sarif, (
                f"{label} SARIF diverged"
            )

    def test_client_cli_analyze_exit_code_matches_batch_cli(
        self, corpus_app, start_daemon
    ):
        harness = start_daemon(corpus_app)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis.cli", "client",
             "--port", str(harness.port), "analyze"],
            capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        cold = run_cli(str(corpus_app), "--json")
        assert proc.stdout == cold.stdout
        assert proc.returncode == cold.returncode


LAN_INDEX_PHP = (
    "<?php $lang = $_COOKIE['lang'];\n"
    "include('lang/lan_' . $lang . '.inc');\n"
    "mysql_query(\"SELECT * FROM t WHERE g = '\" . $greeting . \"'\"); ?>"
)
GUARDED_HELPER_PHP = (
    "<?php\nif (!defined('APP')) { exit; }\nmysql_query('SELECT 2'); ?>"
)
UNGUARDED_HELPER_PHP = "<?php\nmysql_query('SELECT 2'); ?>"


@pytest.fixture
def layout_app(tmp_path):
    """A layout-sensitive page (paper §4's dynamic include over
    ``lang/lan_*.inc``), a guarded library file at the top level, an
    include nothing names, and a plain page."""
    app = tmp_path / "layout-app"
    (app / "lang").mkdir(parents=True)
    (app / "lang" / "lan_en.inc").write_text("<?php $greeting = 'hi'; ?>")
    (app / "lang" / "lan_fr.inc").write_text("<?php $greeting = 'salut'; ?>")
    (app / "index.php").write_text(LAN_INDEX_PHP)
    (app / "helper.php").write_text(GUARDED_HELPER_PHP)
    (app / "unused.inc").write_text("<?php $unused = 1; ?>")
    (app / "about.php").write_text(STANDALONE_PHP)
    return app


def assert_matches_cold_cli(app, response):
    cold = run_cli(str(app), "--json", "--audit")
    assert cold.returncode in (0, 1, 3), cold.stderr
    assert json.dumps(response["document"], indent=2) + "\n" == cold.stdout


def analyzed_pages(response):
    return [Path(page["page"]).name for page in response["document"]["pages"]]


class TestResidentLayout:
    """``invalidate`` tells a content edit of a listed file from a real
    addition or deletion, and only the latter rebuilds the layout."""

    def test_edit_of_unincluded_file_is_a_content_edit(
        self, layout_app, start_daemon
    ):
        client = start_daemon(layout_app).client()
        first = client.analyze()
        assert first["pages_total"] == 2
        touch(layout_app / "unused.inc")
        outcome = client.invalidate(["unused.inc"])
        assert outcome["changed"] == ["unused.inc"]
        assert outcome["added"] == []
        assert outcome["invalidated_pages"] == []
        after = client.analyze()
        assert after["pages_reanalyzed"] == 0
        assert client.status()["layout_builds"] == 1
        assert_matches_cold_cli(layout_app, after)

    def test_include_guard_toggle_moves_the_entry_page(
        self, layout_app, start_daemon
    ):
        client = start_daemon(layout_app).client()
        assert "helper.php" not in analyzed_pages(client.analyze())
        helper = layout_app / "helper.php"

        helper.write_text(UNGUARDED_HELPER_PHP)
        assert client.invalidate(["helper.php"])["changed"] == ["helper.php"]
        unguarded = client.analyze()
        assert analyzed_pages(unguarded) == ["about.php", "helper.php", "index.php"]
        assert unguarded["pages_reanalyzed"] == 1
        assert_matches_cold_cli(layout_app, unguarded)

        helper.write_text(GUARDED_HELPER_PHP)
        assert client.invalidate(["helper.php"])["changed"] == ["helper.php"]
        guarded = client.analyze()
        assert analyzed_pages(guarded) == ["about.php", "index.php"]
        assert guarded["pages_reanalyzed"] == 0
        assert_matches_cold_cli(layout_app, guarded)
        assert client.status()["layout_builds"] == 1

    def test_addition_requeues_layout_sensitive_pages_and_rebuilds(
        self, layout_app, start_daemon
    ):
        client = start_daemon(layout_app).client()
        before = client.analyze()
        (layout_app / "lang" / "lan_de.inc").write_text(
            "<?php $greeting = $_GET['g']; ?>"
        )
        outcome = client.invalidate(["lang/lan_de.inc"])
        assert outcome["added"] == ["lang/lan_de.inc"]
        assert outcome["changed"] == []
        assert outcome["invalidated_pages"] == ["index.php"]
        after = client.analyze()
        assert after["pages_reanalyzed"] == 1
        assert client.status()["layout_builds"] == 2
        # the new pack is tainted: the rebuilt layout's resolver found it
        assert before["document"]["verified"] is True
        assert after["document"]["verified"] is False
        assert_matches_cold_cli(layout_app, after)

    def test_deletion_requeues_layout_sensitive_pages_and_rebuilds(
        self, layout_app, start_daemon
    ):
        client = start_daemon(layout_app).client()
        client.analyze()
        (layout_app / "lang" / "lan_fr.inc").unlink()
        outcome = client.invalidate(["lang/lan_fr.inc"])
        assert outcome["deleted"] == ["lang/lan_fr.inc"]
        assert outcome["invalidated_pages"] == ["index.php"]
        after = client.analyze()
        assert after["pages_reanalyzed"] == 1
        assert client.status()["layout_builds"] == 2
        assert_matches_cold_cli(layout_app, after)

    def test_late_notice_of_an_addition_is_still_an_addition(
        self, layout_app, start_daemon
    ):
        """A rebuild after another event may already list a file whose
        addition is notified later; it must still count as added."""
        client = start_daemon(layout_app).client()
        client.analyze()
        (layout_app / "lang" / "lan_de.inc").write_text(
            "<?php $greeting = $_GET['g']; ?>"
        )
        (layout_app / "about.php").unlink()
        client.invalidate(["about.php"])
        client.analyze()  # rebuilds the layout, lan_de.inc included
        outcome = client.invalidate(["lang/lan_de.inc"])
        assert outcome["added"] == ["lang/lan_de.inc"]
        assert_matches_cold_cli(layout_app, client.analyze())

    def test_restarted_daemon_reports_unrecorded_file_as_added(
        self, layout_app, tmp_path, start_daemon
    ):
        cache = tmp_path / "cache"
        first = start_daemon(layout_app, cache_dir=cache)
        first.client().analyze()
        first.stop()
        client = start_daemon(layout_app, cache_dir=cache).client()
        assert client.status()["depgraph"]["pages"] == 2
        touch(layout_app / "unused.inc")
        touch(layout_app / "lang" / "lan_en.inc")
        outcome = client.invalidate(["unused.inc", "lang/lan_en.inc"])
        assert outcome["added"] == ["unused.inc"]
        assert outcome["changed"] == ["lang/lan_en.inc"]
        assert_matches_cold_cli(layout_app, client.analyze())

    def test_page_deleted_while_down_is_added_back_after_restart(
        self, layout_app, tmp_path, start_daemon
    ):
        """The persisted depgraph still records ``about.php`` as a page;
        once the restarted daemon has a layout without it, re-creating
        it is an addition, not an edit of a known file."""
        cache = tmp_path / "cache"
        first = start_daemon(layout_app, cache_dir=cache)
        first.client().analyze()
        first.stop()
        (layout_app / "about.php").unlink()
        client = start_daemon(layout_app, cache_dir=cache).client()
        assert client.analyze()["pages_total"] == 1
        (layout_app / "about.php").write_text(STANDALONE_PHP)
        assert client.invalidate(["about.php"])["added"] == ["about.php"]
        after = client.analyze()
        assert after["pages_total"] == 2
        assert_matches_cold_cli(layout_app, after)
