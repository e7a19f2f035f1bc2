"""Multi-tenant daemon tests.

The contracts under test:

* **isolation** — each resident project has its own memo, depgraph, and
  invalidation epoch: invalidating a file in one project never evicts
  (or re-analyzes) pages of another;
* **equivalence** — every project's ``analyze`` document matches a cold
  CLI run over that project's tree, including under concurrent clients
  addressing different projects;
* **registry hygiene** — name collisions are refused, the startup
  project cannot be unloaded, and unknown project names are structured
  errors rather than daemon crashes.
"""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

from repro.server.client import ServerError

SHARED_INC = "<?php $prefix = 'SELECT name FROM users'; ?>"
INDEX_PHP = (
    "<?php include 'includes/shared.inc';\n"
    "mysql_query($prefix . \" WHERE id = '\" . $_GET['id'] . \"'\"); ?>"
)
SAFE_PHP = "<?php mysql_query('SELECT 1'); ?>"


def make_app(base, name, *, safe=False):
    app = base / name
    includes = app / "includes"
    includes.mkdir(parents=True)
    (includes / "shared.inc").write_text(SHARED_INC)
    (app / "index.php").write_text(SAFE_PHP if safe else INDEX_PHP)
    (app / "extra.php").write_text(SAFE_PHP)
    return app


def touch(path):
    path.write_text(path.read_text() + "\n")


def cold_cli_json(app):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis.cli", str(app), "--json"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode in (0, 1, 3), proc.stderr
    return proc.stdout


class TestProjectRegistry:
    def test_load_list_unload(self, tmp_path, start_daemon):
        alpha = make_app(tmp_path, "alpha")
        beta = make_app(tmp_path, "beta", safe=True)
        client = start_daemon(alpha).client()

        loaded = client.load_project(beta)
        assert loaded["loaded"] is True
        assert loaded["project"]["name"] == "beta"

        listing = client.projects()
        assert listing["default"] == "alpha"
        assert [p["name"] for p in listing["projects"]] == ["alpha", "beta"]

        unloaded = client.unload_project("beta")
        assert unloaded["unloaded"] is True
        listing = client.projects()
        assert [p["name"] for p in listing["projects"]] == ["alpha"]

    def test_reloading_same_root_is_idempotent(self, tmp_path, start_daemon):
        alpha = make_app(tmp_path, "alpha")
        beta = make_app(tmp_path, "beta", safe=True)
        client = start_daemon(alpha).client()
        assert client.load_project(beta)["loaded"] is True
        again = client.load_project(beta)
        assert again["loaded"] is False
        assert again["project"]["name"] == "beta"

    def test_name_collision_is_refused(self, tmp_path, start_daemon):
        alpha = make_app(tmp_path, "alpha")
        other = make_app(tmp_path / "elsewhere", "alpha", safe=True)
        client = start_daemon(alpha).client()
        with pytest.raises(ServerError) as excinfo:
            client.load_project(other)
        assert excinfo.value.code == "invalid-params"

    def test_default_project_cannot_be_unloaded(self, tmp_path, start_daemon):
        alpha = make_app(tmp_path, "alpha")
        client = start_daemon(alpha).client()
        with pytest.raises(ServerError) as excinfo:
            client.unload_project("alpha")
        assert excinfo.value.code == "invalid-params"

    def test_unknown_project_is_a_structured_error(
        self, tmp_path, start_daemon
    ):
        alpha = make_app(tmp_path, "alpha")
        client = start_daemon(alpha).client()
        with pytest.raises(ServerError) as excinfo:
            client.analyze(project="nope")
        assert excinfo.value.code == "invalid-params"
        # the daemon survives the bad request
        assert client.ping()["pong"] is True

    @pytest.mark.parametrize(
        "bad_name",
        ["../escape", "a/b", "a\\b", "..", ".", "with space"],
    )
    def test_non_slug_project_names_are_refused(
        self, tmp_path, bad_name, start_daemon
    ):
        # names become cache-directory components; a separator or '..'
        # would let one tenant write into (or read) another's namespace
        alpha = make_app(tmp_path, "alpha")
        beta = make_app(tmp_path, "beta", safe=True)
        client = start_daemon(alpha).client()
        with pytest.raises(ServerError) as excinfo:
            client.load_project(beta, name=bad_name)
        assert excinfo.value.code == "invalid-params"
        assert [p["name"] for p in client.projects()["projects"]] == ["alpha"]


class TestTenantIsolation:
    def test_documents_are_per_project(self, tmp_path, start_daemon):
        alpha = make_app(tmp_path, "alpha")           # vulnerable
        beta = make_app(tmp_path, "beta", safe=True)  # verified
        client = start_daemon(alpha).client()
        client.load_project(beta)

        alpha_doc = client.analyze()["document"]
        beta_doc = client.analyze(project="beta")["document"]
        assert alpha_doc["verified"] is False
        assert beta_doc["verified"] is True
        assert alpha_doc["root"] != beta_doc["root"]

    def test_invalidation_does_not_cross_projects(
        self, tmp_path, start_daemon
    ):
        alpha = make_app(tmp_path, "alpha")
        beta = make_app(tmp_path, "beta", safe=True)
        client = start_daemon(alpha).client()
        client.load_project(beta)
        client.analyze()
        client.analyze(project="beta")

        touch(alpha / "includes" / "shared.inc")
        outcome = client.invalidate(["includes/shared.inc"])
        assert outcome["invalidated_pages"] == ["index.php"]

        # beta's memo is untouched: everything replays
        after_beta = client.analyze(project="beta")
        assert after_beta["pages_reanalyzed"] == 0
        # alpha re-analyzes exactly the invalidated page
        after_alpha = client.analyze()
        assert after_alpha["pages_reanalyzed"] == 1

    def test_epochs_advance_independently(self, tmp_path, start_daemon):
        alpha = make_app(tmp_path, "alpha")
        beta = make_app(tmp_path, "beta", safe=True)
        harness = start_daemon(alpha)
        client = harness.client()
        client.load_project(beta)
        client.analyze()
        client.analyze(project="beta")

        touch(alpha / "index.php")
        client.invalidate(["index.php"])
        listing = {
            p["name"]: p for p in client.projects()["projects"]
        }
        assert listing["alpha"]["epoch"] == 1
        assert listing["beta"]["epoch"] == 0

    def test_status_reports_all_tenants(self, tmp_path, start_daemon):
        alpha = make_app(tmp_path, "alpha")
        beta = make_app(tmp_path, "beta", safe=True)
        client = start_daemon(alpha).client()
        client.load_project(beta)
        client.analyze()
        client.analyze(project="beta")
        status = client.status()
        assert status["resident"]["resident.projects"] == 2
        assert status["resident"]["resident.pages"] == 4
        names = [p["name"] for p in status["projects"]]
        assert names == ["alpha", "beta"]


class TestConcurrentClients:
    def test_interleaved_clients_match_single_client_documents(
        self, tmp_path, start_daemon
    ):
        alpha = make_app(tmp_path, "alpha")
        beta = make_app(tmp_path, "beta", safe=True)
        harness = start_daemon(alpha)
        setup = harness.client()
        setup.load_project(beta)
        expected = {
            None: setup.analyze()["document"],
            "beta": setup.analyze(project="beta")["document"],
        }

        failures = []

        def hammer(project):
            try:
                with harness.client() as client:
                    for _ in range(5):
                        document = client.analyze(project=project)["document"]
                        if document != expected[project]:
                            failures.append(
                                f"{project or 'default'}: diverged"
                            )
            except Exception as exc:  # noqa: BLE001 - surfaced below
                failures.append(f"{project or 'default'}: {exc!r}")

        threads = [
            threading.Thread(target=hammer, args=(project,))
            for project in (None, "beta", None, "beta")
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not failures, failures

    def test_invalidate_racing_analyze_across_tenants(
        self, tmp_path, start_daemon
    ):
        """Writers add, delete and edit tenant A's files and notify the
        daemon while readers analyze A and B.  Every request ends in a
        response or a typed error, and once the writers stop each
        tenant's next document matches a cold CLI run."""
        alpha = make_app(tmp_path, "alpha")
        beta = make_app(tmp_path, "beta", safe=True)
        (alpha / "lang").mkdir()
        (alpha / "lang" / "lan_en.inc").write_text("<?php $g = 'hi'; ?>")
        (alpha / "dyn.php").write_text(
            "<?php include('lang/lan_' . $_COOKIE['l'] . '.inc');\n"
            "mysql_query(\"SELECT * FROM t WHERE g = '\" . $g . \"'\"); ?>"
        )
        (alpha / "helper.php").write_text(
            "<?php\nif (!defined('APP')) { exit; }\nmysql_query('SELECT 2'); ?>"
        )
        harness = start_daemon(alpha)
        setup = harness.client()
        setup.load_project(beta)
        setup.analyze()
        setup.analyze(project="beta")

        failures = []
        stop = threading.Event()

        def guarded(name, body):
            def run():
                try:
                    with harness.client() as client:
                        body(client)
                except ServerError:
                    pass  # a typed error is an accepted outcome
                except Exception as exc:  # noqa: BLE001 - surfaced below
                    failures.append(f"{name}: {exc!r}")
            return threading.Thread(target=run, name=name)

        def add_and_delete(client, files):
            for _ in range(6):
                for path, text in files:
                    path.write_text(text)
                    client.invalidate([str(path)])
                for path, _text in files:
                    path.unlink()
                    client.invalidate([str(path)])

        def edit(client):
            helper = alpha / "helper.php"
            guarded_text = helper.read_text()
            for round_ in range(6):
                touch(alpha / "includes" / "shared.inc")
                touch(alpha / "lang" / "lan_en.inc")
                helper.write_text(
                    guarded_text if round_ % 2
                    else "<?php\nmysql_query('SELECT 2'); ?>"
                )
                client.invalidate(
                    ["includes/shared.inc", "lang/lan_en.inc", "helper.php"]
                )

        def analyze(project):
            def body(client):
                while not stop.is_set():
                    try:
                        client.analyze(project=project)
                    except ServerError:
                        pass
            return body

        writers = [
            guarded("packs", lambda c: add_and_delete(c, [
                (alpha / "lang" / "lan_de.inc", "<?php $g = $_GET['g']; ?>"),
                (alpha / "lang" / "lan_fr.inc", "<?php $g = 'salut'; ?>"),
            ])),
            guarded("pages", lambda c: add_and_delete(c, [
                (alpha / "late.php", "<?php mysql_query('SELECT 4'); ?>"),
            ])),
            guarded("edits", edit),
        ]
        readers = [
            guarded("analyze-alpha", analyze(None)),
            guarded("analyze-beta", analyze("beta")),
            guarded("analyze-alpha-2", analyze(None)),
        ]
        for thread in readers + writers:
            thread.start()
        for thread in writers:
            thread.join(timeout=120)
        stop.set()
        for thread in readers:
            thread.join(timeout=120)
        assert not failures, failures

        for project, app in ((None, alpha), ("beta", beta)):
            served = setup.analyze(project=project)["document"]
            assert json.dumps(served, indent=2) + "\n" == cold_cli_json(app), (
                project or "alpha"
            )
        assert setup.ping()["pong"] is True
