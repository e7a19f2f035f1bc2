"""Tests for the ``--trace`` view of the span recorder.

The trace is a rendering of the page captures
:data:`~repro.obs.timeline.TIMELINE` records, so the unit cases drive
that recorder and render its payloads with :func:`render_run`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.corpus import build_app
from repro.obs.metrics import PERF
from repro.obs.timeline import TRACE_PHASES, TimelineRecorder, span_id
from repro.obs.trace import TRACE_FORMAT, render_run, tree_shape

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def app_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("trace-app")
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


def trace_of(app_root, tmp_path, tag, *extra):
    out = tmp_path / f"{tag}.jsonl"
    proc = run_cli(str(app_root), "--trace", str(out), *extra)
    assert proc.returncode in (0, 1)
    return out.read_text()


def spans_of(text):
    """The span lines of a rendered trace."""
    return [json.loads(line) for line in text.splitlines()][1:]


class TestRecorder:
    def test_disabled_recorder_is_noop(self):
        recorder = TimelineRecorder()
        with recorder.page("p.php") as capture:
            capture.set("from_cache", True)  # must not raise
            with recorder.phase("parse", file="x"):
                recorder.annotate("cache", "hit")
        assert capture.payload() is None
        assert recorder._stack == [] and recorder._spans == []
        assert [s["name"] for s in spans_of(render_run([None]))] == ["run"]

    def test_span_nesting_and_attrs(self):
        recorder = TimelineRecorder()
        recorder.configure(True)
        with recorder.page("p.php") as capture:
            with recorder.phase("absdom"):
                with recorder.phase("image", op="addslashes"):
                    recorder.annotate("cache", "miss")
                recorder.annotate("hotspots", 1)
        run, page, absdom, image = spans_of(render_run([capture.payload()]))
        assert (page["name"], page["parent"]) == ("page", run["id"])
        assert page["attrs"] == {"page": "p.php"}
        assert (absdom["name"], absdom["parent"]) == ("absdom", page["id"])
        assert absdom["attrs"]["hotspots"] == 1
        assert (image["name"], image["parent"]) == ("image", absdom["id"])
        assert image["attrs"] == {"op": "addslashes", "cache": "miss"}

    def test_capture_isolates_enclosing_stack(self):
        recorder = TimelineRecorder()
        recorder.configure(True)
        with recorder.phase("outer"):
            with recorder.page("p.php") as capture:
                with recorder.phase("parse"):
                    pass
        _run, page, parse = spans_of(render_run([capture.payload()]))
        assert parse["parent"] == page["id"]
        # the page's spans did not attach to the enclosing driver span
        assert [s["phase"] for s in recorder.drain_driver_spans()] == ["outer"]

    def test_perf_delta_attached_at_exit(self):
        recorder = TimelineRecorder()
        recorder.configure(True, perf=True)
        PERF.reset()
        with recorder.page("p.php") as capture:
            PERF.incr("parse.files", 3)
            with recorder.phase("parse"):
                PERF.incr("parse.files")
            with recorder.phase("verdict-memo"):
                PERF.incr("policy.verdict_cache.hits")
        payload = capture.payload()
        assert payload["perf"]["counters"]["parse.files"] == 4
        parse, memo = payload["spans"]
        assert parse["perf"]["counters"] == {"parse.files": 1}
        # deltas only on the spans the trace view renders
        assert "perf" not in memo

    def test_no_perf_deltas_without_trace(self):
        recorder = TimelineRecorder()
        recorder.configure(True)
        with recorder.page("p.php") as capture:
            with recorder.phase("parse"):
                PERF.incr("parse.files")
        payload = capture.payload()
        assert "perf" not in payload and "perf" not in payload["spans"][0]

    def test_hidden_spans_hang_under_the_nearest_rendered_ancestor(self):
        recorder = TimelineRecorder()
        recorder.configure(True)
        with recorder.page("p.php") as capture:
            with recorder.phase("phase2"):
                with recorder.phase("hotspot"):
                    with recorder.phase("cascade:sql"):
                        with recorder.phase("image"):
                            pass
                    with recorder.phase("verdict-memo"):
                        pass
        spans = spans_of(render_run([capture.payload()]))
        by_name = {s["name"]: s for s in spans}
        assert set(by_name) == {"run", "page", "phase2", "hotspot", "image"}
        assert by_name["image"]["parent"] == by_name["hotspot"]["id"]
        # ids are the timeline's (page, phase, occurrence) ids
        assert by_name["image"]["id"] == span_id("p.php", "image", 0)
        assert by_name["page"]["id"] == span_id("p.php", "page", 0)


class TestSpanIds:
    def test_deterministic_and_position_dependent(self):
        assert span_id("p.php", "parse", 0) == span_id("p.php", "parse", 0)
        assert span_id("p.php", "parse", 0) != span_id("p.php", "parse", 1)
        assert span_id("a.php", "parse", 0) != span_id("b.php", "parse", 0)
        assert len(span_id("", "run", 0)) == 12

    def test_render_run_meta_line_first(self):
        text = render_run([], attrs={"root": "/x"})
        first = json.loads(text.splitlines()[0])
        assert first["event"] == "meta"
        assert first["format"] == TRACE_FORMAT == "sqlciv-trace/2"
        assert first["attrs"] == {"root": "/x"}


class TestRunEquivalence:
    def test_serial_and_parallel_trees_same_shape(self, app_root, tmp_path):
        """The headline guarantee: a --jobs 4 run emits the same span
        tree (ids, parents, names — everything but wall-clock) as the
        serial run."""
        serial = trace_of(app_root, tmp_path, "serial", "--jobs", "1")
        parallel = trace_of(app_root, tmp_path, "parallel", "--jobs", "4")
        shape = tree_shape(serial)
        assert shape == tree_shape(parallel)
        assert len(shape) > len(list(app_root.glob("*.php")))

    def test_expected_span_names_present(self, app_root, tmp_path):
        text = trace_of(app_root, tmp_path, "names", "--jobs", "1")
        names = {name for _, _, name in tree_shape(text)}
        assert {"run", "page", "parse", "absdom", "phase2", "hotspot"} <= names
        assert names <= TRACE_PHASES | {"run"}

    def test_page_spans_carry_perf_deltas(self, app_root, tmp_path):
        text = trace_of(app_root, tmp_path, "perf", "--jobs", "1")
        pages = [
            json.loads(line)
            for line in text.splitlines()
            if '"name": "page"' in line
        ]
        assert pages
        analyzed = sum(
            p["perf"]["counters"].get("pages.analyzed", 0) for p in pages
        )
        assert analyzed == len(pages)

    def test_warm_cache_pages_marked(self, app_root, tmp_path):
        """Disk-cache-served pages still appear in the tree, flagged
        ``from_cache`` with no children (the work they did not do)."""
        cache = tmp_path / "cache"
        trace_of(app_root, tmp_path, "cold", "--jobs", "1",
                 "--cache-dir", str(cache))
        warm = trace_of(app_root, tmp_path, "warm", "--jobs", "1",
                        "--cache-dir", str(cache))
        spans = [json.loads(line) for line in warm.splitlines()][1:]
        pages = [s for s in spans if s["name"] == "page"]
        assert pages and all(s["attrs"].get("from_cache") for s in pages)
        assert {s["name"] for s in spans} == {"run", "page"}

    def test_hotspot_spans_record_verdict_cache(self, app_root, tmp_path):
        text = trace_of(app_root, tmp_path, "verdict", "--jobs", "1")
        hotspots = [
            json.loads(line)
            for line in text.splitlines()
            if '"name": "hotspot"' in line
        ]
        assert hotspots
        for span in hotspots:
            assert span["attrs"]["verdict_cache"] in ("hit", "miss")
            assert span["attrs"]["fingerprint"]


class TestOneRecorder:
    def test_trace_renders_exactly_the_timeline_spans(self, app_root, tmp_path):
        """One recorder, two views: on a parallel run writing both, each
        trace span is a timeline span of the rendered set — same page,
        name and id, parent its nearest rendered ancestor — and the
        trace leaves none of them out."""
        trace_out = tmp_path / "trace.jsonl"
        timeline_out = tmp_path / "timeline.json"
        proc = run_cli(
            str(app_root), "--jobs", "2", "--trace", str(trace_out),
            "--profile=timeline", "--timeline-out", str(timeline_out),
        )
        assert proc.returncode in (0, 1), proc.stderr

        trace_spans = spans_of(trace_out.read_text())
        page_of = {s["id"]: s["attrs"]["page"] for s in trace_spans
                   if s["name"] == "page"}
        rendered = set()
        for span in trace_spans:
            if span["name"] in ("run", "page"):
                continue
            page_of[span["id"]] = page_of[span["parent"]]
            rendered.add((page_of[span["id"]], span["name"], span["id"],
                          span["parent"]))

        expected = set()
        for page in json.loads(timeline_out.read_text())["pages"]:
            spans = page["spans"]
            for span in spans:
                if span["phase"] not in TRACE_PHASES:
                    continue
                parent = span["parent"]
                while parent is not None and (
                    spans[parent]["phase"] not in TRACE_PHASES
                ):
                    parent = spans[parent]["parent"]
                parent_id = (
                    span_id(page["page"], "page", 0) if parent is None
                    else spans[parent]["id"]
                )
                expected.add((page["page"], span["phase"], span["id"],
                              parent_id))
        assert rendered
        assert rendered == expected
