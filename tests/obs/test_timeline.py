"""The timeline recorder, assembly, and the stats report.

The contracts under test:

* span **ids** are pure functions of (page, phase, occurrence) — stable
  across reruns and independent of which process/lane recorded them;
* **lanes** are assigned by first appearance in page order (driver is
  always lane 0), so the layout is a function of the page→worker
  assignment, not of timing;
* the stats report's accounting: self-times telescope to top-level
  coverage, the unattributed gap is what pages don't explain, and the
  serial-window sweep finds the ≤1-lane-busy fraction.
"""

import json

import pytest

from repro.obs.stats import (
    UNATTRIBUTED,
    render_report,
    stats_main,
    summarize,
)
from repro.obs.timeline import (
    TIMELINE_FORMAT,
    TimelineRecorder,
    append_span,
    assemble,
    span_id,
    write_timeline,
)


class TestRecorder:
    def test_disabled_recorder_is_a_no_op(self):
        recorder = TimelineRecorder()
        with recorder.page("index.php") as capture:
            with recorder.phase("absdom"):
                pass
        assert capture.payload() is None

    def test_spans_nest_by_parent_index(self):
        recorder = TimelineRecorder()
        recorder.configure(True)
        with recorder.page("index.php") as capture:
            with recorder.phase("absdom"):
                with recorder.phase("parse"):
                    pass
                with recorder.phase("include"):
                    with recorder.phase("parse"):
                        pass
        payload = capture.payload()
        spans = payload["spans"]
        assert [s["phase"] for s in spans] == [
            "absdom", "parse", "include", "parse",
        ]
        assert [s["parent"] for s in spans] == [None, 0, 0, 2]
        assert all(s["end"] >= s["start"] for s in spans)

    def test_page_capture_isolates_the_enclosing_state(self):
        recorder = TimelineRecorder()
        recorder.configure(True)
        with recorder.phase("scan"):
            pass
        with recorder.page("a.php") as capture:
            with recorder.phase("absdom"):
                pass
        assert [s["phase"] for s in capture.payload()["spans"]] == ["absdom"]
        # the driver span recorded outside the page is still drainable
        assert [s["phase"] for s in recorder.drain_driver_spans()] == ["scan"]
        assert recorder.drain_driver_spans() == []

    def test_annotate_sets_meta_on_the_open_span(self):
        recorder = TimelineRecorder()
        recorder.configure(True)
        with recorder.page("a.php") as capture:
            with recorder.phase("verdict-memo"):
                recorder.annotate("outcome", "hit")
        assert capture.payload()["spans"][0]["meta"] == {"outcome": "hit"}

    def test_append_span_stretches_the_page_bounds(self):
        recorder = TimelineRecorder()
        recorder.configure(True)
        with recorder.page("a.php") as capture:
            pass
        payload = capture.payload()
        end = payload["t_end"] + 1.0
        append_span(payload, "pickle", payload["t_end"], end, bytes=123)
        assert payload["t_end"] == end
        assert payload["spans"][-1]["meta"] == {"bytes": 123}


def _payload(page, pid, t0, spans, dur=None):
    """A synthetic page payload; spans are (phase, parent, start, end).

    ``dur`` overrides the page duration (default: the last span end),
    leaving a trailing unattributed gap.
    """
    if dur is None:
        dur = max((end for *_x, end in spans), default=0.0)
    return {
        "page": page,
        "t_start": t0,
        "t_end": t0 + dur,
        "pid": pid,
        "spans": [
            {"phase": phase, "parent": parent,
             "start": t0 + start, "end": t0 + end}
            for phase, parent, start, end in spans
        ],
    }


class TestAssemble:
    def test_lanes_by_first_appearance_in_page_order(self):
        payloads = [
            _payload("a.php", 222, 1.0, [("absdom", None, 0.0, 1.0)]),
            _payload("b.php", 333, 1.0, [("absdom", None, 0.0, 1.0)]),
            _payload("c.php", 222, 2.0, [("absdom", None, 0.0, 1.0)]),
        ]
        timeline = assemble(payloads)
        assert [lane["role"] for lane in timeline["lanes"]] == [
            "driver", "worker", "worker",
        ]
        assert [p["lane"] for p in timeline["pages"]] == [1, 2, 1]

    def test_span_ids_are_rerun_stable_and_lane_independent(self):
        def run(pid, t0):
            return assemble(
                [
                    _payload("a.php", pid, t0, [
                        ("absdom", None, 0.0, 1.0),
                        ("parse", 0, 0.0, 0.5),
                        ("parse", 0, 0.5, 0.9),
                    ]),
                ]
            )

        first = run(pid=222, t0=10.0)
        second = run(pid=999, t0=5000.0)  # different process, different clock
        ids_of = lambda tl: [s["id"] for s in tl["pages"][0]["spans"]]  # noqa: E731
        assert ids_of(first) == ids_of(second)
        # occurrence ordinals keep same-phase siblings distinct
        assert len(set(ids_of(first))) == 3
        assert ids_of(first)[1] == span_id("a.php", "parse", 0)
        assert ids_of(first)[2] == span_id("a.php", "parse", 1)

    def test_offsets_are_relative_to_the_earliest_event(self):
        timeline = assemble(
            [_payload("a.php", 222, 100.0, [("absdom", None, 0.0, 2.0)])],
            driver_spans=[
                {"phase": "scan", "parent": None, "start": 99.0, "end": 99.5}
            ],
        )
        assert timeline["driver_spans"][0]["start"] == 0.0
        assert timeline["pages"][0]["start"] == pytest.approx(1.0)
        assert timeline["wall_seconds"] == pytest.approx(3.0)

    def test_empty_run_assembles(self):
        timeline = assemble([None, None])
        assert timeline["format"] == TIMELINE_FORMAT
        assert timeline["pages"] == [] and timeline["wall_seconds"] == 0.0


class TestStats:
    def _two_lane_timeline(self):
        # lane 1: a.php [0,10] — absdom [0,6] with parse [0,2] inside,
        #         cascade [6,9]; 1s of the page is unattributed
        # lane 2: b.php [0,4]  — absdom [0,4]
        # serial window: [4,10] (only lane 1 busy) = 60% of wall
        return assemble(
            [
                _payload("a.php", 222, 0.0, [
                    ("absdom", None, 0.0, 6.0),
                    ("parse", 0, 0.0, 2.0),
                    ("cascade:sql", None, 6.0, 9.0),
                ], dur=10.0),
                _payload("b.php", 333, 0.0, [("absdom", None, 0.0, 4.0)]),
            ]
        )

    def test_summarize_accounting(self):
        summary = summarize(self._two_lane_timeline())
        assert summary["wall_seconds"] == pytest.approx(10.0)
        assert summary["busy_seconds"] == pytest.approx(14.0)
        phases = summary["phases"]
        # absdom self-time: (6-2) on a.php + 4 on b.php
        assert phases["absdom"]["self_seconds"] == pytest.approx(8.0)
        assert phases["parse"]["self_seconds"] == pytest.approx(2.0)
        assert phases["cascade:sql"]["self_seconds"] == pytest.approx(3.0)
        assert phases[UNATTRIBUTED]["self_seconds"] == pytest.approx(1.0)
        assert summary["attributed_fraction"] == pytest.approx(
            13 / 14, abs=1e-3
        )
        assert summary["serial_fraction"] == pytest.approx(0.6)
        assert summary["bottleneck"] == "absdom"
        # serial window [4,10]: absdom contributes [4,6], cascade [6,9]
        assert phases["absdom"]["serial_seconds"] == pytest.approx(2.0)
        assert phases["cascade:sql"]["serial_seconds"] == pytest.approx(3.0)

    def test_report_names_the_bottleneck_and_lanes(self):
        report = render_report(self._two_lane_timeline())
        assert "bottleneck: absdom" in report
        assert "worker 1" in report and "worker 2" in report
        assert "serial windows" in report

    def test_stats_main_json_round_trip(self, tmp_path, capsys):
        path = tmp_path / "timeline.json"
        write_timeline(path, self._two_lane_timeline())
        assert stats_main([str(path), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["bottleneck"] == "absdom"

    def test_stats_main_rejects_non_timeline_files(self, tmp_path, capsys):
        path = tmp_path / "not-a-timeline.json"
        path.write_text("{}")
        assert stats_main([str(path)]) == 2
        assert "sqlciv stats" in capsys.readouterr().err

    @pytest.mark.parametrize("document", [
        {"format": TIMELINE_FORMAT},
        {"format": TIMELINE_FORMAT, "wall_seconds": 1.0, "lanes": [],
         "driver_spans": [],
         "pages": [{"page": "a.php", "lane": 0, "start": 0.0, "spans": []}]},
    ], ids=["no-pages", "page-without-dur"])
    def test_stats_main_rejects_truncated_timelines(
        self, tmp_path, capsys, document
    ):
        """A document that claims the format but lacks keys the report
        needs is a usage error (exit 2), not a traceback."""
        path = tmp_path / "truncated.json"
        path.write_text(json.dumps(document))
        assert stats_main([str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("sqlciv stats: ") and "Traceback" not in err
