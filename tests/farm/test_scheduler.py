"""The farm's dispatch order: largest entry file first.

The driver queues a batch's pages by descending entry-file size, page
order breaking ties, and every worker pulls from that one queue — the
greedy longest-processing-time list schedule.  A single worker makes
the order observable: it runs the pages exactly as they were queued.
"""

import multiprocessing
import os

import pytest

from repro.farm import workers as farm_workers
from repro.farm.driver import AnalysisFarm

PAGE_PHP = "<?php mysql_query(\"SELECT a FROM t WHERE x = '0'\"); ?>"

pytestmark = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="the recording stub reaches the worker by fork inheritance",
)


def run_order(tmp_path, monkeypatch, padding):
    """Pages named by ``padding`` (name → extra bytes) on ``AnalysisFarm(1)``.

    Returns the order the worker ran them in.
    """
    root = tmp_path / "app"
    root.mkdir()
    for name, extra in padding.items():
        (root / name).write_text(PAGE_PHP + " " * extra)
    ran_file = tmp_path / "ran"
    real_page_result = farm_workers._page_result

    def recording_page_result(root, page, *args):
        with open(ran_file, "a") as handle:
            handle.write(os.path.basename(page) + "\n")
        return real_page_result(root, page, *args)

    # patched before the farm forks its worker
    monkeypatch.setattr(farm_workers, "_page_result", recording_page_result)
    pages = [str(root / name) for name in padding]
    with AnalysisFarm(1) as farm:
        results = farm.map_pages(root, pages)
    # results come back in page order whatever order the pages ran in
    assert [result.page for result in results] == pages
    return ran_file.read_text().split()


class TestPlanning:
    def test_lpt_places_largest_tasks_first(self, tmp_path, monkeypatch):
        ran = run_order(
            tmp_path, monkeypatch, {"a.php": 100, "b.php": 500, "c.php": 300},
        )
        assert ran == ["b.php", "c.php", "a.php"]

    def test_equal_costs_tie_break_on_submission_order(
        self, tmp_path, monkeypatch,
    ):
        ran = run_order(
            tmp_path, monkeypatch,
            {"d.php": 0, "b.php": 0, "c.php": 0, "a.php": 0},
        )
        assert ran == ["d.php", "b.php", "c.php", "a.php"]


class TestMakespan:
    def test_single_worker_runs_in_plan_order(self, tmp_path, monkeypatch):
        ran = run_order(
            tmp_path, monkeypatch,
            {"a.php": 0, "b.php": 400, "c.php": 0, "d.php": 200, "e.php": 400},
        )
        assert ran == ["b.php", "e.php", "d.php", "a.php", "c.php"]
