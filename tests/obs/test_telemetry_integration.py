"""Telemetry end-to-end: byte-identity, merge determinism, stable ids.

Three contracts on a real corpus application:

* **byte-identity** — ``--profile=timeline`` with ``--trace`` must not
  perturb a single byte of the ``--json`` document (beyond the opt-in
  ``perf`` block) or of the SARIF log;
* **merge determinism** — counters whose totals are a function of the
  analyzed work (not of which worker did it) agree across ``--jobs``
  settings and across reruns.  Per-worker memo *splits* (hit vs miss)
  legitimately vary with scheduling; the lookup totals don't;
* **span-id stability** — rerunning the same project from cold caches
  yields the same span ids page for page (they encode (page, phase,
  occurrence), never time, pid, or lane).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.analyzer import entry_pages, run_pages
from repro.analysis.policy import VERDICT_CACHE
from repro.corpus import build_app
from repro.lang.image import IMAGE_CACHE
from repro.obs.timeline import TIMELINE, assemble
from repro.obs.metrics import PERF

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def app_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("telemetry-app")
    build_app(root, "eve_activity_tracker")
    return root / "eve_activity_tracker"


def run_cli(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.analysis.cli", *argv],
        capture_output=True,
        text=True,
        env=env,
    )


def _cold_run(app_root, jobs, audit=True):
    """One in-process analysis from cold memos; returns the results."""
    VERDICT_CACHE.clear()
    IMAGE_CACHE.clear()
    PERF.reset()
    return run_pages(app_root, entry_pages(app_root), audit=audit, jobs=jobs)


class TestByteIdentity:
    def test_profiling_perturbs_neither_json_nor_sarif(
        self, app_root, tmp_path
    ):
        plain_sarif = tmp_path / "plain.sarif"
        profiled_sarif = tmp_path / "profiled.sarif"
        timeline_out = tmp_path / "timeline.json"
        trace_out = tmp_path / "trace.jsonl"
        plain = run_cli(
            str(app_root), "--json", "--jobs", "2",
            "--sarif", str(plain_sarif),
        )
        # both views of the span recorder on at once
        profiled = run_cli(
            str(app_root), "--json", "--jobs", "2",
            "--sarif", str(profiled_sarif),
            "--profile=timeline", "--timeline-out", str(timeline_out),
            "--trace", str(trace_out),
        )
        assert plain.returncode == profiled.returncode

        plain_doc = json.loads(plain.stdout)
        profiled_doc = json.loads(profiled.stdout)
        assert "perf" in profiled_doc  # the opt-in block is present…
        profiled_doc.pop("perf")
        # …and is the only difference, to the byte
        assert (
            json.dumps(profiled_doc, indent=2)
            == json.dumps(plain_doc, indent=2)
        )
        assert profiled_sarif.read_bytes() == plain_sarif.read_bytes()

        timeline = json.loads(timeline_out.read_text())
        assert timeline["format"] == "sqlciv-timeline/1"
        assert len(timeline["pages"]) == len(plain_doc["pages"])
        meta = json.loads(trace_out.read_text().splitlines()[0])
        assert meta["format"] == "sqlciv-trace/2"


class TestMergeDeterminism:
    def _invariants(self, counters):
        """Totals that depend on the work, not on who did it."""
        return {
            "pages.analyzed": counters.get("pages.analyzed"),
            "verdict.lookups": (
                counters.get("policy.verdict_cache.hits", 0)
                + counters.get("policy.verdict_cache.misses", 0)
            ),
            "image.lookups": (
                counters.get("image.cache.hits", 0)
                + counters.get("image.cache.misses", 0)
            ),
        }

    def test_totals_agree_across_jobs_and_reruns(self, app_root):
        _cold_run(app_root, jobs=1)
        serial = PERF.snapshot()["counters"]
        _cold_run(app_root, jobs=2)
        parallel_a = PERF.snapshot()["counters"]
        _cold_run(app_root, jobs=2)
        parallel_b = PERF.snapshot()["counters"]
        PERF.reset()

        assert serial["pages.analyzed"] > 0
        assert (
            self._invariants(serial)
            == self._invariants(parallel_a)
            == self._invariants(parallel_b)
        )


class TestSpanIdStability:
    def test_rerun_from_cold_caches_reproduces_every_span_id(
        self, app_root
    ):
        def ids_by_page():
            TIMELINE.configure(True)
            try:
                results = _cold_run(app_root, jobs=1)
                timeline = assemble(
                    [r.timeline for r in results],
                    TIMELINE.drain_driver_spans(),
                )
            finally:
                TIMELINE.configure(False)
                PERF.reset()
            return {
                page["page"]: [span["id"] for span in page["spans"]]
                for page in timeline["pages"]
            }

        first = ids_by_page()
        second = ids_by_page()
        assert first and first == second
        assert all(ids for ids in first.values())


#: the work-cut counters: include name-table builds and reuses, sampling
#: walks cut by the step budget, SQL context-form memo lookups
WORK_CUT_COUNTERS = (
    "include.names.builds",
    "include.names.hits",
    "samples.budget_cuts",
    "policy.context_forms.hits",
    "policy.context_forms.misses",
)


class TestWorkCutCounters:
    @pytest.mark.parametrize("app", ["e107", "warp_cms"])
    def test_counters_repeat_across_serial_runs(self, app, tmp_path):
        build_app(tmp_path, app)

        def counters():
            proc = run_cli(
                str(tmp_path / app), "--json", "--audit", "--jobs", "1",
                "--profile",
            )
            assert proc.returncode in (0, 1, 3), proc.stderr
            found = json.loads(proc.stdout)["perf"]["counters"]
            picked = {name: found.get(name, 0) for name in WORK_CUT_COUNTERS}
            return picked, proc.stderr

        first, table = counters()
        second, _ = counters()
        assert first == second
        assert first["include.names.builds"] > 0
        assert "include.names.builds" in table
        if app == "e107":
            # one table per directory, reused at every other include
            assert first["include.names.hits"] > first["include.names.builds"]
        else:
            # warp's listing pages share two context forms
            assert first["policy.context_forms.misses"] == 2
            assert first["policy.context_forms.hits"] > 0
            # the report samples come from the shortest-first search,
            # which finds its three strings well inside the pop budget
            assert first["samples.budget_cuts"] == 0
            assert "sql context forms" in table
