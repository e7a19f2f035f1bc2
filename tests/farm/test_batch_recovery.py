"""Failed-batch isolation: a persistent farm must never leak one
batch's work into another.

The driver tags every task and result envelope with the batch id.  When
a batch aborts (worker error, worker death), its undispatched tasks are
drained and any envelope a worker was still producing is discarded by
the next batch's collect loop — so a single failed request can never
corrupt the results served to later clients of a long-lived daemon.

These tests drive a real in-process :class:`AnalysisFarm` and inject
envelopes directly into the result queue to simulate the leftovers of
a failed batch.
"""

import os

import pytest

from repro.analysis.analyzer import PageResult
from repro.farm.driver import AnalysisFarm
from repro.obs.metrics import PERF

INDEX_PHP = (
    "<?php $q = \"SELECT a FROM t WHERE x = '\";\n"
    "mysql_query($q . $_GET['a'] . \"'\"); ?>"
)


@pytest.fixture
def app(tmp_path):
    (tmp_path / "index.php").write_text(INDEX_PHP)
    return tmp_path


@pytest.fixture
def farm():
    farm = AnalysisFarm(1)
    yield farm
    farm.shutdown()


def stale_counter():
    return PERF.snapshot()["counters"].get("farm.envelopes.stale_dropped", 0)


class TestBatchIsolation:
    def test_stale_envelope_is_discarded_not_merged(self, app, farm):
        # a leftover page envelope from some earlier (aborted) batch:
        # wrong tag, poisoned payload at index 0
        farm._result_queue.put(
            ("some-dead-batch", ("page", 0, "POISON", None))
        )
        before = stale_counter()
        results = farm.map_pages(app, [str(app / "index.php")])
        assert len(results) == 1
        assert isinstance(results[0], PageResult)
        assert results[0].page == str(app / "index.php")
        assert stale_counter() == before + 1

    def test_failed_batch_does_not_poison_the_next(self, app, farm):
        # simulate a worker failure inside the FIRST batch: batch ids
        # are deterministic ("<pid>:<ordinal>"), so the injected error
        # envelope carries the id the driver is about to use and the
        # collect loop treats it as a real in-batch failure
        first_batch = f"{os.getpid()}:1"
        farm._result_queue.put(
            (first_batch, ("error", "page", "synthetic failure", None))
        )
        with pytest.raises(RuntimeError, match="synthetic failure"):
            farm.map_pages(app, [str(app / "index.php")])

        # the worker may still have analyzed the first batch's page and
        # pushed its envelope; the second batch must drop it (stale tag)
        # and produce its own, correct result
        results = farm.map_pages(app, [str(app / "index.php")])
        assert len(results) == 1
        assert isinstance(results[0], PageResult)
        assert results[0].page == str(app / "index.php")
