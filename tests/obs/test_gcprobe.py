"""The ``--profile`` collector probe (``repro.obs.gcprobe``).

Contracts: it counts collections per generation and times them into
``gc.pause``; under ``--profile=timeline`` each pause inside an open
span becomes a ``gc`` child span, so ``sqlciv stats`` attributes it;
and it is installed only while profiling is on.
"""

import gc

import pytest

from repro.analysis import cli
from repro.obs.gcprobe import GC_PROBE
from repro.obs.metrics import PERF
from repro.obs.stats import summarize
from repro.obs.timeline import TIMELINE, assemble


@pytest.fixture(autouse=True)
def probe_off():
    GC_PROBE.configure(False)
    PERF.reset()
    yield
    GC_PROBE.configure(False)
    TIMELINE.configure(False)
    PERF.reset()


def test_counts_and_times_collections():
    GC_PROBE.configure(True)
    GC_PROBE.configure(True)  # idempotent: one hook, one count
    assert sum(cb == GC_PROBE._callback for cb in gc.callbacks) == 1
    gc.collect()
    counters = PERF.snapshot()["counters"]
    assert counters["gc.collections.gen2"] == 1
    assert PERF.snapshot()["timers"]["gc.pause"] > 0
    GC_PROBE.configure(False)
    assert not GC_PROBE.installed
    gc.collect()
    assert PERF.snapshot()["counters"]["gc.collections.gen2"] == 1


def test_pauses_become_gc_spans_under_the_open_phase():
    GC_PROBE.configure(True)
    TIMELINE.configure(True)
    gc.collect()  # no span open: counted, not recorded
    with TIMELINE.page("index.php") as capture:
        with TIMELINE.phase("absdom"):
            gc.collect()
    payload = capture.payload()
    phases = [(s["phase"], s["parent"]) for s in payload["spans"]]
    # the explicit collection, plus any automatic one it happened to meet
    assert phases[0] == ("absdom", None)
    assert phases[1:] and set(phases[1:]) == {("gc", 0)}
    assert TIMELINE.drain_driver_spans() == []
    summary = summarize(assemble([payload]))
    assert summary["phases"]["gc"]["self_seconds"] > 0


def _app(tmp_path):
    (tmp_path / "page.php").write_text(
        "<?php\nmysql_query(\"SELECT * FROM t WHERE a = '\" . "
        "mysql_real_escape_string($_GET['a']) . \"'\");\n"
    )
    return str(tmp_path)


def test_cli_installs_the_probe_only_with_profile(tmp_path, capsys):
    app = _app(tmp_path)
    assert cli.main([app, "--jobs", "1"]) == 0
    assert not GC_PROBE.installed
    assert cli.main([app, "--jobs", "1", "--profile"]) == 0
    assert GC_PROBE.installed
    assert cli.main([app, "--jobs", "1"]) == 0
    assert not GC_PROBE.installed
    capsys.readouterr()
