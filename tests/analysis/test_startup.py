"""Start-up and shut-down: a run loads only what it uses (DESIGN §5n).

The contract under test, each in fresh interpreters:

* ``import repro``, ``import repro.analysis.cli``, ``sqlciv --help`` and
  a run served entirely from ``--cache-dir`` load none of the
  page-analysis stack (PHP front end, phase 1, SARIF, regex and image
  kernels), while the public names of ``repro`` still resolve;
* the ``sqlciv`` process entry (exit-time ``gc.freeze``, start-up span)
  writes the same files an in-process ``main(argv)`` call writes;
* a ``--jobs 2`` run imports the stack and builds the policy automata
  once, in the driver before its workers fork.
"""

import json
import os
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis.cli import main
from repro.corpus import build_app
from repro.obs.timeline import TRACE_PHASES
from repro.obs.trace import tree_shape

REPO_ROOT = Path(__file__).resolve().parents[2]

#: modules only a page analysis needs
STACK = (
    "repro.php.ast",
    "repro.php.parser",
    "repro.php.builtins",
    "repro.analysis.stringtaint",
    "repro.analysis.sarif",
    "repro.lang.regex",
    "repro.lang.image",
)

#: the corpus apps and their manifests, which only corpus builds need
CORPUS_APPS = tuple(
    f"repro.corpus.{name}" for name in ("e107", "eve", "tiger", "unp", "warp", "manifest")
)

#: the policies a default (SQL only) run never enables
OTHER_POLICIES = tuple(
    f"repro.analysis.policies.{name}"
    for name in ("xss", "xss_context", "shell", "evalinj", "path")
)

#: runs ``repro.analysis.cli`` as ``python -m`` would, and writes the
#: names of the loaded modules to argv[1] from an ``atexit`` handler —
#: which also shows the exit-time freeze leaves ``atexit`` working
_PROBE = """
import atexit, json, runpy, sys
out = sys.argv[1]
atexit.register(
    lambda: open(out, "w").write(json.dumps(sorted(sys.modules)))
)
sys.argv = ["sqlciv", *sys.argv[2:]]
runpy.run_module("repro.analysis.cli", run_name="__main__", alter_sys=True)
"""


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return env


def loaded_modules(tmp_path, *cli_args):
    """``(process, loaded module names)`` of one ``sqlciv`` process."""
    out = tmp_path / "modules.json"
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE, str(out), *cli_args],
        capture_output=True, text=True, env=_env(),
    )
    return proc, set(json.loads(out.read_text()))


def imported_by(statement):
    proc = subprocess.run(
        [sys.executable, "-c",
         f"{statement}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"],
        capture_output=True, text=True, env=_env(), check=True,
    )
    return set(json.loads(proc.stdout))


@pytest.fixture(scope="module")
def app_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("startup-app")
    build_app(root, "eve_activity_tracker")
    return root / "eve_activity_tracker"


class TestLazyImports:
    @pytest.mark.parametrize(
        "statement", ["import repro", "import repro.analysis.cli"]
    )
    def test_import_loads_no_analysis_stack(self, statement):
        assert imported_by(statement).isdisjoint(STACK)

    def test_help_loads_no_analysis_stack(self, tmp_path):
        proc, modules = loaded_modules(tmp_path, "--help")
        assert proc.returncode == 0, proc.stderr
        assert "usage: sqlciv" in proc.stdout
        assert modules.isdisjoint(STACK), modules & set(STACK)

    def test_warm_run_loads_no_analysis_stack(self, app_root, tmp_path):
        cache = str(tmp_path / "cache")
        args = [str(app_root), "--json", "--jobs", "1", "--cache-dir", cache]
        cold, cold_modules = loaded_modules(tmp_path, *args)
        warm, warm_modules = loaded_modules(tmp_path, *args)
        assert cold_modules.issuperset(set(STACK) - {"repro.analysis.sarif"})
        assert warm_modules.isdisjoint(STACK), warm_modules & set(STACK)
        assert warm.stdout == cold.stdout
        assert warm.returncode == cold.returncode

    def test_public_names_still_resolve(self):
        modules = imported_by(
            "from repro import analyze_page, StringTaintAnalysis\n"
            "assert analyze_page.__module__ == 'repro.analysis.analyzer'\n"
            "assert StringTaintAnalysis.__module__ == 'repro.analysis.stringtaint'"
        )
        assert "repro.analysis.stringtaint" in modules

    def test_fuzz_import_loads_no_corpus_app(self):
        """The fuzz oracle's page generator comes without the five
        corpus apps and their manifests."""
        modules = imported_by("import repro.oracle.fuzz")
        assert "repro.corpus.generator" in modules
        assert modules.isdisjoint(CORPUS_APPS), modules & set(CORPUS_APPS)

    def test_default_run_loads_only_the_sql_policy(self, app_root, tmp_path):
        proc, modules = loaded_modules(tmp_path, str(app_root), "--json", "--jobs", "1")
        assert proc.returncode in (0, 1, 3), proc.stderr
        assert "repro.analysis.policies.sql" in modules
        assert modules.isdisjoint(OTHER_POLICIES), modules & set(OTHER_POLICIES)

    def test_unknown_name_is_an_attribute_error(self):
        import repro

        with pytest.raises(AttributeError):
            repro.no_such_name  # noqa: B018


def _timeline_structure(path):
    """Per page, the ``(id, phase)`` of every span whose existence does
    not depend on process state (:data:`TRACE_PHASES`: memo misses,
    collector pauses and the ``startup`` import land where this process
    happens to meet them); for the driver, its phases but ``startup``
    and ``gc``."""
    document = json.loads(Path(path).read_text())
    return (
        [
            (page["page"], [
                (span["id"], span["phase"]) for span in page["spans"]
                if span["phase"] in TRACE_PHASES
            ])
            for page in document["pages"]
        ],
        [
            span["phase"] for span in document["driver_spans"]
            if span["phase"] not in ("startup", "gc")
        ],
    )


def _cache_entries(cache):
    """Every cache entry by relative path: page results with their
    timings zeroed, everything else as bytes."""
    entries = {}
    for path in sorted(Path(cache).rglob("*")):
        if not path.is_file():
            continue
        rel = path.relative_to(cache).as_posix()
        if rel.startswith("page/"):
            result = pickle.loads(path.read_bytes())
            entries[rel] = replace(result, string_seconds=0.0, check_seconds=0.0)
        else:
            entries[rel] = path.read_bytes()
    return entries


class TestProcessEntry:
    def test_subprocess_files_match_in_process_run(
        self, app_root, tmp_path, capsys
    ):
        """The process entry changes how the process ends, never what it
        wrote: stdout, exit code, SARIF and every cache entry are the
        same; the trace and timeline differ only in timings."""

        def argv(out):
            out.mkdir()
            return [
                str(app_root), "--audit", "--jobs", "1",
                "--sarif", str(out / "run.sarif"),
                "--trace", str(out / "trace.jsonl"),
                "--profile=timeline", "--timeline-out", str(out / "timeline.json"),
                "--cache-dir", str(out / "cache"),
            ]

        sub, inproc = tmp_path / "sub", tmp_path / "inproc"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis.cli", *argv(sub)],
            capture_output=True, text=True, env=_env(),
        )
        capsys.readouterr()
        code = main(argv(inproc))
        assert proc.returncode == code
        assert proc.stdout == capsys.readouterr().out

        assert (sub / "run.sarif").read_bytes() == (inproc / "run.sarif").read_bytes()
        assert tree_shape((sub / "trace.jsonl").read_text()) == tree_shape(
            (inproc / "trace.jsonl").read_text()
        )
        assert _timeline_structure(sub / "timeline.json") == _timeline_structure(
            inproc / "timeline.json"
        )
        assert _cache_entries(sub / "cache") == _cache_entries(inproc / "cache")

    def test_timeline_puts_startup_and_process_cpu_on_record(
        self, app_root, tmp_path
    ):
        timeline = tmp_path / "timeline.json"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis.cli", str(app_root),
             "--jobs", "1", "--profile=timeline", "--timeline-out", str(timeline)],
            capture_output=True, text=True, env=_env(),
        )
        assert proc.returncode in (0, 1, 3), proc.stderr
        document = json.loads(timeline.read_text())
        driver = [span["phase"] for span in document["driver_spans"]]
        assert driver[0] == "startup" and "report" in driver
        cpu = document["attrs"]["process_cpu_seconds"]
        assert cpu > 0

        stats = subprocess.run(
            [sys.executable, "-m", "repro.analysis.cli", "stats", str(timeline),
             "--json"],
            capture_output=True, text=True, env=_env(), check=True,
        )
        summary = json.loads(stats.stdout)
        assert summary["process_cpu_seconds"] == cpu
        assert 0 < summary["cpu_attributed_fraction"] <= 1.5
        assert "startup" in summary["phases"]

    def test_policy_config_load_is_attributed(self, app_root, tmp_path):
        """Loading ``--policy-config`` imports every policy and the
        analysis stack; it runs inside a ``startup`` span, so the
        timeline still accounts for the process's CPU."""
        timeline = tmp_path / "timeline.json"
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis.cli", str(app_root),
             "--json", "--jobs", "1",
             "--policy-config", str(REPO_ROOT / "examples" / "policies.yaml"),
             "--profile=timeline", "--timeline-out", str(timeline)],
            capture_output=True, text=True, env=_env(),
        )
        assert proc.returncode in (0, 1, 3), proc.stderr
        stats = subprocess.run(
            [sys.executable, "-m", "repro.analysis.cli", "stats", str(timeline),
             "--json"],
            capture_output=True, text=True, env=_env(), check=True,
        )
        assert json.loads(stats.stdout)["cpu_attributed_fraction"] >= 0.9
        driver = json.loads(timeline.read_text())["driver_spans"]
        assert [span["phase"] for span in driver[:2]] == ["startup", "startup"]

    def test_in_process_timeline_has_no_process_fields(self, app_root, tmp_path):
        timeline = tmp_path / "timeline.json"
        main([str(app_root), "--jobs", "1", "--profile=timeline",
              "--timeline-out", str(timeline)])
        document = json.loads(timeline.read_text())
        assert "process_cpu_seconds" not in document["attrs"]
        assert "startup" not in [s["phase"] for s in document["driver_spans"]]


class TestFarmWarmUp:
    def test_workers_inherit_the_stack_and_automata(self, app_root, tmp_path):
        """Counted across the driver and (through their perf deltas) the
        workers: one stack import, one warm-up — both before the fork."""
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis.cli", str(app_root),
             "--json", "--jobs", "2", "--profile=timeline",
             "--timeline-out", str(tmp_path / "timeline.json")],
            capture_output=True, text=True, env=_env(),
        )
        assert proc.returncode in (0, 1, 3), proc.stderr
        counters = json.loads(proc.stdout)["perf"]["counters"]
        assert counters["startup.stack_imports"] == 1
        assert counters["startup.warm_ups"] == 1
        document = json.loads((tmp_path / "timeline.json").read_text())
        assert {page["lane"] for page in document["pages"]} - {0}
        assert not [
            span for page in document["pages"] for span in page["spans"]
            if span["phase"] == "startup"
        ]
