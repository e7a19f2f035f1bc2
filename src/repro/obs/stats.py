"""``sqlciv stats timeline.json`` — gantt + bottleneck report.

Consumes a :data:`~repro.obs.timeline.TIMELINE_FORMAT` document and
answers the question the raw profile table cannot: *where did the wall
time go, per worker lane, and which phase dominates the serial part of
the run*.  Three accounting notions, kept deliberately distinct:

**busy time**
    the sum of page durations (wherever they ran) plus driver-side
    top-level spans.  On an N-lane run busy time may approach N× wall;
    it is the denominator for phase attribution, so percentages are
    about *work*, not elapsed time.

**self time**
    a span's duration minus its children's — the time spent in that
    phase itself.  Self times of all spans in a page telescope to the
    page's top-level span coverage; whatever the top-level spans do not
    cover is reported as ``(unattributed)`` slack.  The acceptance bar
    is slack < 10% of busy time.

**serial windows**
    maximal intervals of the run during which at most one lane was
    busy.  Phase self time falling inside these windows is work that no
    amount of extra workers can hide — the report names the phase that
    dominates them, which is the explanation for parallel speedups
    stuck near (or below) 1.0.

**process CPU**
    a timeline written by a ``sqlciv`` process (not an in-process
    ``main`` call) records the CPU of the process and its reaped farm
    workers in ``attrs.process_cpu_seconds``.  The summary then also
    reports which share of it the attributed spans cover — start-up
    included, since the driver lane carries a ``startup`` span — so
    CPU no span explains (worker fork and teardown) shows up as the
    gap.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import defaultdict

from repro.obs.timeline import load_timeline

UNATTRIBUTED = "(unattributed)"

_GANTT_WIDTH = 64
_GANTT_CHARS = " ░▒▓█"


def _span_end(span: dict) -> float:
    return span["start"] + span["dur"]


def _subtract(interval: tuple[float, float],
              holes: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """``interval`` minus the (sorted, contained, disjoint) ``holes``."""
    lo, hi = interval
    out = []
    cursor = lo
    for a, b in holes:
        a, b = max(a, cursor), min(b, hi)
        if a > cursor:
            out.append((cursor, a))
        cursor = max(cursor, b)
    if hi > cursor:
        out.append((cursor, hi))
    return out


def _self_segments(spans: list[dict]) -> list[tuple[str, float, float]]:
    """``(phase, start, end)`` self-time segments for a flat span list."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        parent = span.get("parent")
        if parent is not None:
            children[parent].append((span["start"], _span_end(span)))
    segments = []
    for index, span in enumerate(spans):
        holes = sorted(children.get(index, ()))
        for a, b in _subtract((span["start"], _span_end(span)), holes):
            if b > a:
                segments.append((span["phase"], a, b))
    return segments


def _page_segments(page: dict) -> list[tuple[str, float, float]]:
    """Self-time segments for one page, including the unattributed gap
    between the page bounds and its top-level span coverage."""
    segments = _self_segments(page["spans"])
    top = sorted(
        (s["start"], _span_end(s))
        for s in page["spans"]
        if s.get("parent") is None
    )
    for a, b in _subtract((page["start"], page["start"] + page["dur"]), top):
        if b > a:
            segments.append((UNATTRIBUTED, a, b))
    return segments


def _lane_intervals(timeline: dict) -> dict[int, list[tuple[float, float]]]:
    """Busy intervals per lane: pages on their lanes, driver top-level
    spans on lane 0."""
    intervals: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for page in timeline["pages"]:
        intervals[page["lane"]].append(
            (page["start"], page["start"] + page["dur"])
        )
    for span in timeline["driver_spans"]:
        if span.get("parent") is None:
            intervals[0].append((span["start"], _span_end(span)))
    for lane in intervals:
        intervals[lane].sort()
    return intervals


def _serial_windows(
    intervals: dict[int, list[tuple[float, float]]],
) -> list[tuple[float, float]]:
    """Maximal windows with at most one lane busy (idle counts too)."""
    events: list[tuple[float, int]] = []
    for lane_intervals in intervals.values():
        for a, b in lane_intervals:
            events.append((a, 1))
            events.append((b, -1))
    if not events:
        return []
    events.sort()
    windows = []
    active = 0
    serial_since: float | None = events[0][0]
    cursor = events[0][0]
    for t, delta in events:
        if t > cursor:
            if active <= 1 and serial_since is None:
                serial_since = cursor
            elif active > 1 and serial_since is not None:
                windows.append((serial_since, cursor))
                serial_since = None
            cursor = t
        active += delta
    if serial_since is not None and cursor > serial_since:
        windows.append((serial_since, cursor))
    # merge adjacent
    merged: list[tuple[float, float]] = []
    for a, b in windows:
        if merged and a <= merged[-1][1] + 1e-12:
            merged[-1] = (merged[-1][0], max(merged[-1][1], b))
        else:
            merged.append((a, b))
    return merged


def _overlap(segments: list[tuple[str, float, float]],
             windows: list[tuple[float, float]]) -> dict[str, float]:
    """Per-phase seconds of segment time falling inside the windows."""
    totals: dict[str, float] = defaultdict(float)
    if not windows:
        return totals
    windows = sorted(windows)
    for phase, a, b in segments:
        for wa, wb in windows:
            if wb <= a:
                continue
            if wa >= b:
                break
            totals[phase] += min(b, wb) - max(a, wa)
    return totals


def summarize(timeline: dict) -> dict:
    """The machine-readable bottleneck summary for one timeline."""
    pages = timeline["pages"]
    driver_spans = timeline["driver_spans"]
    wall = timeline["wall_seconds"]

    busy = sum(p["dur"] for p in pages) + sum(
        s["dur"] for s in driver_spans if s.get("parent") is None
    )

    segments: list[tuple[str, float, float]] = []
    for page in pages:
        segments.extend(_page_segments(page))
    segments.extend(_self_segments(driver_spans))

    phase_self: dict[str, float] = defaultdict(float)
    for phase, a, b in segments:
        phase_self[phase] += b - a

    attributed = sum(v for k, v in phase_self.items() if k != UNATTRIBUTED)
    slack = phase_self.get(UNATTRIBUTED, 0.0)

    intervals = _lane_intervals(timeline)
    windows = _serial_windows(intervals)
    serial_seconds = sum(b - a for a, b in windows)
    serial_by_phase = _overlap(segments, windows)

    named = {k: v for k, v in phase_self.items() if k != UNATTRIBUTED}
    bottleneck = max(named, key=named.get) if named else None
    phases = {
        phase: {
            "self_seconds": round(seconds, 6),
            "busy_fraction": round(seconds / busy, 4) if busy else 0.0,
            "serial_seconds": round(serial_by_phase.get(phase, 0.0), 6),
        }
        for phase, seconds in sorted(
            phase_self.items(), key=lambda item: -item[1]
        )
    }
    summary = {
        "wall_seconds": round(wall, 6),
        "busy_seconds": round(busy, 6),
        "pages": len(pages),
        "lanes": len(timeline["lanes"]),
        "attributed_seconds": round(attributed, 6),
        "attributed_fraction": round(attributed / busy, 4) if busy else 1.0,
        "unattributed_seconds": round(slack, 6),
        "serial_seconds": round(serial_seconds, 6),
        "serial_fraction": round(serial_seconds / wall, 4) if wall else 0.0,
        "bottleneck": bottleneck,
        "phases": phases,
    }
    cpu = timeline.get("attrs", {}).get("process_cpu_seconds")
    if isinstance(cpu, (int, float)) and cpu > 0:
        summary["process_cpu_seconds"] = cpu
        summary["cpu_attributed_fraction"] = round(attributed / cpu, 4)
    return summary


def _gantt(timeline: dict) -> list[str]:
    wall = timeline["wall_seconds"]
    if wall <= 0:
        return []
    intervals = _lane_intervals(timeline)
    labels = {
        lane["lane"]: (
            "driver" if lane["role"] == "driver"
            else f"worker {lane['lane']}"
        )
        for lane in timeline["lanes"]
    }
    width = max(len(label) for label in labels.values()) if labels else 6
    cell = wall / _GANTT_WIDTH
    rows = []
    for lane_id in sorted(labels):
        coverage = [0.0] * _GANTT_WIDTH
        for a, b in intervals.get(lane_id, ()):
            first = int(a / cell)
            last = min(_GANTT_WIDTH - 1, int(b / cell))
            for col in range(first, last + 1):
                lo, hi = col * cell, (col + 1) * cell
                coverage[col] += max(0.0, min(b, hi) - max(a, lo))
        cells = "".join(
            _GANTT_CHARS[min(len(_GANTT_CHARS) - 1,
                             int(c / cell * (len(_GANTT_CHARS) - 1) + 0.5))]
            for c in coverage
        )
        rows.append(f"  {labels[lane_id]:<{width}} |{cells}|")
    rows.append(f"  {'':<{width}}  0s{'wall ' + _fmt_s(wall):>{_GANTT_WIDTH}}")
    return rows


def _fmt_s(seconds: float) -> str:
    return f"{seconds:.3f}s" if seconds < 100 else f"{seconds:.1f}s"


def render_report(timeline: dict) -> str:
    """The human-readable gantt + bottleneck report."""
    summary = summarize(timeline)
    attrs = timeline.get("attrs", {})
    workers = summary["lanes"] - 1
    lines = ["== sqlciv timeline report =="]
    subject = attrs.get("root") or attrs.get("subject")
    if subject:
        lines.append(f"subject: {subject}")
    lines.append(
        f"run: wall {_fmt_s(summary['wall_seconds'])}"
        f" | {summary['pages']} page(s)"
        f" | {workers} worker lane(s) + driver"
    )
    lines.append("")
    lines.extend(_gantt(timeline))
    lines.append("")

    busy = summary["busy_seconds"]
    wall = summary["wall_seconds"]
    ratio = f" = {busy / wall * 100:.0f}% of wall" if wall else ""
    lines.append(f"phase attribution (busy {_fmt_s(busy)}{ratio}):")
    name_width = max(
        [len(UNATTRIBUTED)] + [len(p) for p in summary["phases"]]
    )
    for phase, stats in summary["phases"].items():
        fraction = stats["busy_fraction"]
        bar = "█" * max(1, round(fraction * 24)) if fraction > 0 else ""
        lines.append(
            f"  {phase:<{name_width}}  {stats['self_seconds']:>9.3f}s"
            f"  {fraction * 100:>5.1f}%  {bar}"
        )
    lines.append("")
    lines.append(
        f"attributed: {summary['attributed_fraction'] * 100:.1f}% of busy"
        f" time (unattributed slack"
        f" {_fmt_s(summary['unattributed_seconds'])})"
    )
    if "process_cpu_seconds" in summary:
        lines.append(
            f"process CPU: {_fmt_s(summary['process_cpu_seconds'])},"
            f" {summary['cpu_attributed_fraction'] * 100:.1f}% of it"
            f" attributed"
        )
    lines.append(
        f"serial windows (<=1 lane busy):"
        f" {summary['serial_fraction'] * 100:.1f}% of run wall"
    )
    bottleneck = summary["bottleneck"]
    if bottleneck:
        stats = summary["phases"][bottleneck]
        serial_total = summary["serial_seconds"]
        serial_share = (
            f", {stats['serial_seconds'] / serial_total * 100:.1f}%"
            f" of serial-window time" if serial_total else ""
        )
        lines.append(
            f"bottleneck: {bottleneck} —"
            f" {stats['busy_fraction'] * 100:.1f}% of busy time"
            f"{serial_share}"
        )
    else:
        lines.append("bottleneck: none (no attributed phases)")
    return "\n".join(lines) + "\n"


def stats_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sqlciv stats",
        description="Render the gantt + bottleneck report for a "
                    "--profile=timeline capture.",
    )
    parser.add_argument("timeline", help="path to a timeline.json capture")
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable summary instead of the report",
    )
    args = parser.parse_args(argv)
    try:
        timeline = load_timeline(args.timeline)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"sqlciv stats: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(summarize(timeline), indent=2))
    else:
        sys.stdout.write(render_report(timeline))
    return 0
