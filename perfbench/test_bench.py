"""Smoke test of the benchmark at its smallest sizes: one small corpus
app, one daemon session, one fuzz segment, and ``--seconds 1`` (one
batch round, 2 edits, 7 fuzz pages).  It is not part of the tier-1
suite; run it explicitly from the repository root::

    python -m pytest perfbench/test_bench.py -q
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import common
import run

BENCHMARK = json.loads((common.ROOT / "BENCHMARK.json").read_text())
SMALL_APP = "eve_activity_tracker"


@pytest.fixture
def ctx():
    common.require_checkout()
    common.WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="test-", dir=common.WORK))
    yield run.Context(
        seed=3, seconds=1.0, scratch=scratch, env=common.child_env(scratch),
        apps=(SMALL_APP,), probes=1, sessions=1, segments=1,
    )
    shutil.rmtree(scratch, ignore_errors=True)


def _units(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}


def test_declared_metrics_match_the_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert _units("end_to_end") == run.E2E_UNITS
    assert _units("per_layer") == run.LAYER_UNITS


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_metrics_are_printed_and_outputs_correct(ctx, workload):
    tally = run.end_to_end(ctx, workload)
    line = run.result(tally.metrics(), run.E2E_UNITS, tally.attempted, tally.failed)
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert {name: m["unit"] for name, m in line["metrics"].items()} == _units("end_to_end")
    assert all(m["value"] > 0 for m in line["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_prints_every_layer_metric(ctx, workload):
    metrics, attempted, failed = run.traced_run(ctx, workload)
    line = run.result(metrics, run.LAYER_UNITS, attempted, failed)
    assert line["correct"] and attempted >= 2
    assert {name: m["unit"] for name, m in line["metrics"].items()} == _units("per_layer")


def test_tampered_document_counts_as_failure(tmp_path):
    goldens = common.Goldens()
    root = tmp_path / SMALL_APP
    golden = (common.GOLDEN_DIRS[False] / f"{SMALL_APP}.json").read_text()
    document = golden.replace("<ROOT>", str(root))
    tally = run.Tally()
    tally.record(goldens.matches(SMALL_APP, root, document, False), "as analyzed")
    flipped = document.replace('"verified": false', '"verified": true', 1)
    assert flipped != document
    tally.record(goldens.matches(SMALL_APP, root, flipped, False), "tampered")
    assert (tally.attempted, tally.failed) == (2, 1)


def test_exits_nonzero_without_the_program():
    """Given only BENCHMARK.json and perfbench/, the runner must refuse
    to produce a result."""
    common.WORK.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=common.WORK))
    try:
        shutil.copy(common.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(
            common.ROOT / "perfbench", bare / "perfbench",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "batch-serial",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
