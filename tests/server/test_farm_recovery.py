"""Fault injection: a farm worker dies under a ``--jobs 2`` daemon.

The daemon keeps one analysis farm for its whole lifetime.  A worker
that is killed must cost at most the request it died in — that request
gets a typed ``internal-error`` or a correct document — and the next
``analyze`` must run on a fresh pool of live workers and match a serial
run byte for byte.
"""

import json
import multiprocessing
import os
import signal

import pytest

from repro.analysis.analyzer import entry_pages, run_pages
from repro.analysis.reports import json_document
from repro.farm import workers as farm_workers
from repro.obs.metrics import PERF
from repro.server.client import ServerError

SHARED_INC = "<?php $prefix = 'SELECT name FROM users'; ?>"
PAGES = {
    "index.php": (
        "<?php include 'includes/shared.inc';\n"
        "mysql_query($prefix . \" WHERE id = '\" . $_GET['id'] . \"'\"); ?>"
    ),
    "list.php": (
        "<?php include 'includes/shared.inc';\n"
        "mysql_query($prefix . ' ORDER BY ' . intval($_GET['o'])); ?>"
    ),
    "about.php": "<?php mysql_query('SELECT 1'); ?>",
}


@pytest.fixture
def app(tmp_path):
    root = tmp_path / "app"
    (root / "includes").mkdir(parents=True)
    (root / "includes" / "shared.inc").write_text(SHARED_INC)
    for name, text in PAGES.items():
        (root / name).write_text(text)
    return root


def serial_text(root):
    results = run_pages(root, entry_pages(root), audit=True, jobs=1)
    return json.dumps(json_document(root, results), indent=2)


def served_text(response):
    return json.dumps(response["document"], indent=2)


def restarts():
    return PERF.snapshot()["counters"].get("server.farm.restarts", 0)


def assert_fresh_pool(daemon, old_pids):
    farm = daemon._farm
    assert farm is not None and farm.healthy()
    pids = {process.pid for process in farm._workers}
    assert len(pids) == 2 and not pids & old_pids


def test_worker_killed_between_batches(app, start_daemon):
    harness = start_daemon(app, jobs=2)
    client = harness.client()
    try:
        first = client.analyze()
        assert served_text(first) == serial_text(app)
        old_pids = {process.pid for process in harness.daemon._farm._workers}
        victim = harness.daemon._farm._workers[0]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10)
        assert not victim.is_alive()

        before = restarts()
        client.invalidate(list(PAGES))
        after = client.analyze()
        assert after["pages_reanalyzed"] == len(PAGES)
        assert served_text(after) == serial_text(app)
        assert restarts() == before + 1
        assert_fresh_pool(harness.daemon, old_pids)
    finally:
        client.close()
        harness.daemon.close()


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the injected fault reaches the workers by fork inheritance",
)
def test_worker_killed_mid_batch(app, start_daemon, monkeypatch, tmp_path):
    """A worker SIGKILLs itself while analyzing ``list.php`` (while a
    trigger file exists).  The batch loses that page, so the request
    fails with a typed error; the next one runs on a new pool."""
    trigger = tmp_path / "kill-next-list-page"
    real_page_result = farm_workers._page_result

    def dying_page_result(root, page, *args):
        if str(page).endswith("list.php") and trigger.exists():
            trigger.unlink()
            os.kill(os.getpid(), signal.SIGKILL)
        return real_page_result(root, page, *args)

    # patched before the daemon's first batch forks its workers
    monkeypatch.setattr(farm_workers, "_page_result", dying_page_result)
    trigger.write_text("")
    harness = start_daemon(app, jobs=2)
    client = harness.client()
    try:
        with pytest.raises(ServerError) as excinfo:
            client.analyze()
        assert excinfo.value.code == "internal-error"
        assert "died" in excinfo.value.message
        assert not trigger.exists()
        old_pids = {process.pid for process in harness.daemon._farm._workers}

        after = client.analyze()
        assert after["pages_reanalyzed"] == len(PAGES)
        assert served_text(after) == serial_text(app)
        assert_fresh_pool(harness.daemon, old_pids)
    finally:
        client.close()
        harness.daemon.close()
