"""Farm integration test: serial vs ``--jobs 2`` through the real CLI.

Runs the CLI in fresh subprocesses over a small synthetic app and
asserts the ``--json`` document — minus the perf block — is identical
to the serial run, and that the scheduling-invariant counters agree.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]

INDEX_PHP = """<?php
include 'lib.inc';
mysql_query($q1 . $_GET['a'] . "'");
mysql_query($q2 . $_GET['b'] . "'");
mysql_query($q1 . "0");
mysql_query($q2 . "1");
?>"""
LIB_INC = (
    "<?php $q1 = \"SELECT a FROM t WHERE x = '\";\n"
    "$q2 = \"SELECT b FROM t WHERE y = '\"; ?>"
)
OTHER_PHP = "<?php include 'lib.inc'; mysql_query($q1 . \"z'\"); ?>"


@pytest.fixture
def app(tmp_path):
    (tmp_path / "index.php").write_text(INDEX_PHP)
    (tmp_path / "other.php").write_text(OTHER_PHP)
    (tmp_path / "lib.inc").write_text(LIB_INC)
    return tmp_path


def run_cli(app_root, jobs):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.analysis.cli", str(app_root),
         "--json", "--profile", "--jobs", str(jobs)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode in (0, 1, 3), proc.stderr[-2000:]
    return json.loads(proc.stdout)


def verdicts(document):
    return {k: v for k, v in document.items() if k != "perf"}


def test_jobs_2_matches_serial_documents_and_counters(app):
    serial = run_cli(app, jobs=1)
    farm = run_cli(app, jobs=2)
    assert verdicts(farm) == verdicts(serial)

    # pages.analyzed and the verdict-lookup total must not depend on
    # which worker analyzed which page (tests/obs contract, farm edition)
    def invariants(document):
        counters = document["perf"]["counters"]
        return (
            counters["pages.analyzed"],
            counters.get("policy.verdict_cache.hits", 0)
            + counters.get("policy.verdict_cache.misses", 0),
        )

    assert invariants(farm) == invariants(serial)
