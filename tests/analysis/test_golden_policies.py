"""Golden regression: all-policies output is byte-identical across the
kernel optimizations.

The checked-in files under ``golden_policies/`` were captured from the
pre-optimization pipeline with **every** registered sink policy enabled
(``policies: [sql, xss, xss-context, shell, eval, path]``): ``--json``
documents and SARIF logs for all five corpus applications.  The
hardware-fast kernels (bitset charsets, integer-indexed Earley, lazy FST
images, reachable-only intersections) must not perturb a single byte of
them, so verdicts, witnesses, sample queries, provenance, and SARIF all
stay bit-stable.

The ``--json`` check also runs every app on a two-worker analysis farm
(``jobs=2``), whose documents must match the same goldens byte for
byte.

Paths are normalized to ``<ROOT>`` because the corpus is rebuilt in a
fresh temporary directory on every run; everything else is compared
verbatim.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.analyzer import entry_pages, run_pages
from repro.analysis.policies import PolicyConfig
from repro.analysis.policies.registry import REGISTRY
from repro.analysis.reports import json_document
from repro.analysis.sarif import render_sarif
from repro.analysis.policy import VERDICT_CACHE
from repro.corpus import APPS, build_app
from repro.farm import AnalysisFarm
from repro.lang.image import IMAGE_CACHE

GOLDEN = Path(__file__).parent / "golden_policies"

APP_DIRS = [app_dir for _, app_dir in APPS]


@pytest.fixture(scope="module")
def corpus_results(tmp_path_factory):
    """Analyze each corpus app once with all policies; tests share it."""
    config = PolicyConfig(enabled=tuple(REGISTRY))
    out = {}
    for app_dir in APP_DIRS:
        tmp = tmp_path_factory.mktemp(f"golden_pol_{app_dir}")
        build_app(tmp, app_dir)
        root = tmp / app_dir
        pages = entry_pages(root)
        results = run_pages(root, pages, audit=True, jobs=1, policies=config)
        out[app_dir] = (root, results, config)
    return out


@pytest.fixture(scope="module")
def farm_results(corpus_results):
    """The same apps on one two-worker farm.  The process memos are
    cleared first, so the forked workers start cold instead of
    replaying the serial run's verdicts."""
    VERDICT_CACHE.clear()
    IMAGE_CACHE.clear()
    out = {}
    with AnalysisFarm(2) as farm:
        for app_dir, (root, _, config) in corpus_results.items():
            out[app_dir] = run_pages(
                root, entry_pages(root), audit=True, jobs=2,
                policies=config, farm=farm,
            )
    return out


@pytest.mark.parametrize(
    "app_dir,jobs",
    [
        pytest.param(app_dir, jobs, id=app_dir if jobs == 1 else f"{app_dir}-jobs2")
        for jobs in (1, 2)
        for app_dir in APP_DIRS
    ],
)
def test_json_document_matches_golden(request, corpus_results, app_dir, jobs):
    root, results, _ = corpus_results[app_dir]
    if jobs == 2:
        results = request.getfixturevalue("farm_results")[app_dir]
    rendered = json.dumps(json_document(root, results), indent=2)
    rendered = rendered.replace(str(root), "<ROOT>") + "\n"
    assert rendered == (GOLDEN / f"{app_dir}.json").read_text()


@pytest.mark.parametrize("app_dir", APP_DIRS)
def test_sarif_log_matches_golden(corpus_results, app_dir):
    root, results, config = corpus_results[app_dir]
    rendered = render_sarif(root, results, policies=config)
    rendered = rendered.replace(root.as_uri() + "/", "file://<ROOT>/")
    rendered = rendered.replace(str(root), "<ROOT>") + "\n"
    assert rendered == (GOLDEN / f"{app_dir}.sarif").read_text()
