"""Idle cost, shutdown and fault injection for the farm's workers.

An idle worker blocks on the farm's shared task queue, so a resident
farm costs no CPU between batches, and ``shutdown()`` wakes it with a
``None`` task rather than waiting out its idle recheck.  A worker
killed with SIGKILL — blocked idle, perhaps holding the task queue's
read lock, or in the middle of a task — must make the batch raise
:class:`FarmWorkerDied` within two seconds, and ``shutdown()`` must
still return promptly.
"""

import multiprocessing
import os
import signal
import threading
import time

import pytest

from repro.farm import workers as farm_workers
from repro.farm.driver import AnalysisFarm, FarmWorkerDied

INDEX_PHP = (
    "<?php $q = \"SELECT a FROM t WHERE x = '\";\n"
    "mysql_query($q . $_GET['a'] . \"'\"); ?>"
)

needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the injected fault reaches the workers by fork inheritance",
)


@pytest.fixture
def app(tmp_path):
    root = tmp_path / "app"
    root.mkdir()
    (root / "index.php").write_text(INDEX_PHP)
    (root / "other.php").write_text(INDEX_PHP)
    return root


def cpu_seconds(pid: int) -> float:
    """User + system CPU of ``pid``, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    # fields[0] is the state (stat field 3): utime/stime are fields 14/15
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def timed_shutdown(farm: AnalysisFarm) -> float:
    started = time.monotonic()
    farm.shutdown()
    return time.monotonic() - started


@pytest.mark.skipif(
    not os.path.exists("/proc/self/stat"), reason="reads /proc/<pid>/stat"
)
def test_idle_workers_use_no_cpu(app):
    farm = AnalysisFarm(2)
    try:
        # one batch first, so the workers are past start-up and back to
        # waiting, exactly as between a daemon's requests
        assert len(farm.map_pages(app, [str(app / "index.php")])) == 1
        time.sleep(0.3)
        pids = [process.pid for process in farm._workers]
        before = [cpu_seconds(pid) for pid in pids]
        time.sleep(2.0)
        used = [cpu_seconds(pid) - start for pid, start in zip(pids, before)]
        assert all(seconds <= 0.02 for seconds in used), used
    finally:
        farm.shutdown()


def test_idle_shutdown_is_prompt(app):
    farm = AnalysisFarm(2)
    try:
        assert len(farm.map_pages(app, [str(app / "index.php")])) == 1
        # the worker that ran the page has just started a fresh idle
        # wait; only the None it is sent can end that wait early
        time.sleep(0.1)
    finally:
        elapsed = timed_shutdown(farm)
    assert elapsed < 0.3 < farm_workers._IDLE_RECHECK_S, elapsed


def test_worker_killed_while_idle(app):
    farm = AnalysisFarm(2)
    try:
        victim = farm._workers[0]
        os.kill(victim.pid, signal.SIGKILL)
        victim.join(timeout=10)
        started = time.monotonic()
        with pytest.raises(FarmWorkerDied, match="farm worker .* died"):
            farm.map_pages(app, [str(app / "index.php"), str(app / "other.php")])
        assert time.monotonic() - started < 2.0
    finally:
        assert timed_shutdown(farm) < 3.0


@needs_fork
def test_worker_killed_mid_task(app, tmp_path, monkeypatch):
    started_file = tmp_path / "task-started"
    real_page_result = farm_workers._page_result

    def stuck_page_result(root, page, *args):
        if str(page).endswith("index.php"):
            started_file.write_text(str(os.getpid()))
            time.sleep(60)
        return real_page_result(root, page, *args)

    # patched before the farm forks its workers
    monkeypatch.setattr(farm_workers, "_page_result", stuck_page_result)
    farm = AnalysisFarm(2)
    killed_at = []

    def kill_when_started():
        deadline = time.monotonic() + 30
        while not started_file.exists() and time.monotonic() < deadline:
            time.sleep(0.01)
        time.sleep(0.05)
        os.kill(int(started_file.read_text()), signal.SIGKILL)
        killed_at.append(time.monotonic())

    killer = threading.Thread(target=kill_when_started)
    killer.start()
    try:
        with pytest.raises(FarmWorkerDied, match="farm worker .* died"):
            farm.map_pages(app, [str(app / "index.php"), str(app / "other.php")])
        raised_at = time.monotonic()
        killer.join()
        assert raised_at - killed_at[0] < 2.0
    finally:
        killer.join()
        assert timed_shutdown(farm) < 3.0
