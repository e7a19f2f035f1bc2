"""The span recorder behind ``--profile=timeline`` and ``--trace``.

Where ``--profile`` answers "how much, in total", the recorder answers
**which worker was doing which phase, when, under which include**.  It
records flat, phase-tagged spans —

``parse``, ``include``, ``absdom`` (the phase-1 abstract
interpretation), ``intersect`` / ``image`` (its grammar refinements and
transducer images), ``phase2``, ``hotspot`` (one hotspot's check),
``verdict-memo`` (lookup, hit or miss), ``cascade:<policy>`` (the
phase-2 check cascade), ``image.construct`` /
``image.rebind``, ``audit``, ``cache.page_load``, ``pickle`` (result
serialization for the IPC hop), and ``gc`` (a cyclic collector pause,
recorded by :mod:`repro.obs.gcprobe`)

— per page, wherever the page actually ran.  Two views render the same
captures: :func:`assemble` (``timeline.json``) and
:func:`repro.obs.trace.render_run` (the ``--trace`` JSONL tree, which
shows only :data:`TRACE_PHASES`).  Each page's spans travel
home inside the picklable :class:`~repro.analysis.analyzer.PageResult`
(tagged with the recording process id), and the driver assembles one
``timeline.json`` with a **lane** per worker process: lane 0 is the
driver, worker lanes are numbered by first appearance in page order.

Determinism: span **ids** are derived from ``(page, phase, occurrence
index)`` — never from timestamps, pids, or lanes — so two runs that do
the same work produce the same id for every span, serial or parallel.
Timestamps are ``time.perf_counter()`` readings; on the platforms we
run (Linux ``CLOCK_MONOTONIC``), they are comparable across the driver
and its forked/spawned workers, which is what lets one run-relative
clock order spans from different processes on a shared gantt.

Recording is off unless ``--profile=timeline`` or ``--trace`` is
given, and the disabled paths are a singleton attribute check — and by
construction (DESIGN 5i) enabling it never changes an analysis output
byte.  Only ``--trace`` adds perf deltas (:meth:`PerfRecorder.diff
<repro.obs.metrics.PerfRecorder.diff>`) to the spans its view renders.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

from repro.obs.metrics import PERF

TIMELINE_FORMAT = "sqlciv-timeline/1"

#: The spans the ``--trace`` view renders: those whose existence does
#: not depend on per-process memo state (``cascade:*`` and
#: ``image.construct``/``image.rebind`` run only on a memo miss;
#: ``cache.page_load``, ``gc`` and ``pickle`` only under some options),
#: so a serial and a ``--jobs N`` run render the same tree.  ``page`` is
#: the capture itself.
TRACE_PHASES = frozenset({
    "page", "parse", "include", "absdom", "phase2", "hotspot",
    "intersect", "image", "audit",
})


class _NullCapture:
    """What :meth:`TimelineRecorder.page` yields while recording is off."""

    __slots__ = ()

    def set(self, key: str, value) -> None:
        pass

    def payload(self) -> None:
        return None


_NULL_CAPTURE = _NullCapture()


class _PageCapture:
    """One page's span list plus its wall-clock bounds, page-level meta
    and (under ``--trace``) the page's perf delta."""

    __slots__ = ("page", "t_start", "t_end", "spans", "meta", "perf")

    def __init__(self, page: str) -> None:
        self.page = page
        self.t_start = 0.0
        self.t_end = 0.0
        self.spans: list[dict] = []
        self.meta: dict = {}
        self.perf: dict | None = None

    def set(self, key: str, value) -> None:
        self.meta[key] = value

    def payload(self) -> dict:
        """The picklable form shipped in ``PageResult.timeline``."""
        payload = {
            "page": self.page,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "pid": os.getpid(),
            "spans": self.spans,
        }
        if self.meta:
            payload["meta"] = self.meta
        if self.perf:
            payload["perf"] = self.perf
        return payload


def _perf_delta(before: dict) -> dict | None:
    """The perf delta since ``before``, empty sections dropped."""
    delta = {k: v for k, v in PERF.diff(before).items() if v}
    return delta or None


class TimelineRecorder:
    """The process-wide span recorder (:data:`TIMELINE`).

    ``enabled`` gates everything; ``perf`` (``--trace``) additionally
    attaches a perf delta to every span in :data:`TRACE_PHASES`.  Spans
    are stored flat (dicts with a ``parent`` index), nested via an
    open-span stack; :meth:`page` isolates a page's spans from the
    enclosing state, so worker-recorded pages reassemble identically to
    driver-recorded ones.  Driver-side phases recorded outside any page
    (directory scan, project-state hash) accumulate until
    :meth:`drain_driver_spans`.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.perf = False
        self._spans: list[dict] = []
        self._stack: list[int] = []

    def configure(self, enabled: bool, perf: bool = False) -> None:
        self.enabled = enabled
        self.perf = enabled and perf
        self._spans = []
        self._stack = []

    @property
    def mode(self) -> tuple[bool, bool]:
        """``(enabled, perf)``: what farm workers copy from the driver."""
        return (self.enabled, self.perf)

    @contextmanager
    def phase(self, name: str, **meta):
        """Record one phase-tagged span under the innermost open span."""
        if not self.enabled:
            yield None
            return
        span: dict = {
            "phase": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": 0.0,
        }
        if meta:
            span["meta"] = meta
        index = len(self._spans)
        self._spans.append(span)
        self._stack.append(index)
        before = PERF.snapshot() if self.perf and name in TRACE_PHASES else None
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            if before is not None:
                perf = _perf_delta(before)
                if perf:
                    span["perf"] = perf
            self._stack.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """Add a finished span under the innermost open span; dropped
        when no span is open (the collector probe's ``gc`` pauses)."""
        if self.enabled and self._stack:
            self._spans.append({
                "phase": name,
                "parent": self._stack[-1],
                "start": start,
                "end": end,
            })

    def annotate(self, key: str, value) -> None:
        """Set a meta key on the innermost open span, if any."""
        if self.enabled and self._stack:
            span = self._spans[self._stack[-1]]
            span.setdefault("meta", {})[key] = value

    @contextmanager
    def page(self, page: str):
        """Capture one page's spans, isolated from the enclosing state."""
        if not self.enabled:
            yield _NULL_CAPTURE
            return
        saved_spans, saved_stack = self._spans, self._stack
        self._spans, self._stack = [], []
        capture = _PageCapture(page)
        before = PERF.snapshot() if self.perf else None
        capture.t_start = time.perf_counter()
        try:
            yield capture
        finally:
            capture.t_end = time.perf_counter()
            if before is not None:
                capture.perf = _perf_delta(before)
            capture.spans = self._spans
            self._spans, self._stack = saved_spans, saved_stack

    def drain_driver_spans(self) -> list[dict]:
        """Hand over (and clear) the spans recorded outside any page."""
        spans, self._spans = self._spans, []
        self._stack = []
        return spans

    def drain_adopted(self) -> list[dict]:
        """Non-page captures recorded since the last drain.  Every farm
        task is a page, so there are none; the method stays because
        timeline callers pass its result as ``assemble(aux_payloads=)``."""
        return []


#: The process-wide recorder; workers enable their own copy in the pool
#: initializer and ship finished page captures home inside PageResult.
TIMELINE = TimelineRecorder()


def append_span(
    payload: dict, phase: str, start: float, end: float, **meta
) -> None:
    """Append a top-level span to a finished page payload (used for the
    ``pickle`` phase, which by definition runs after the capture closed)
    and stretch the page bounds to cover it."""
    span: dict = {"phase": phase, "parent": None, "start": start, "end": end}
    if meta:
        span["meta"] = meta
    payload["spans"].append(span)
    payload["t_end"] = max(payload["t_end"], end)


def span_id(page: str, phase: str, occurrence: int) -> str:
    """Deterministic span id: a function of the page, the phase name,
    and the phase's occurrence ordinal within the page — identical
    across reruns, lanes, and processes."""
    seed = f"{page}|{phase}|{occurrence}".encode("utf-8", errors="replace")
    return hashlib.sha256(seed).hexdigest()[:12]


def assemble(
    page_payloads: list[dict | None],
    driver_spans: list[dict] | None = None,
    attrs: dict | None = None,
    aux_payloads: list[dict] | None = None,
) -> dict:
    """The ``timeline.json`` document for one run.

    ``page_payloads`` are the per-page captures **in page order**
    (``None`` entries — pages analyzed with recording off — are
    skipped).  Lane 0 is the driver process; worker lanes are numbered
    by first appearance in page order, so the lane layout is a pure
    function of the page→worker assignment.

    ``aux_payloads`` are captures that belong to no page; they render
    under an ``aux`` key so ``pages`` stays one entry per analyzed page.
    """
    driver_spans = driver_spans or []
    pages = [p for p in page_payloads if p]
    aux = [p for p in (aux_payloads or []) if p]
    starts = (
        [p["t_start"] for p in pages + aux]
        + [s["start"] for s in driver_spans]
    )
    ends = [p["t_end"] for p in pages + aux] + [s["end"] for s in driver_spans]
    t0 = min(starts) if starts else 0.0
    wall = (max(ends) - t0) if ends else 0.0

    driver_pid = os.getpid()
    lane_of: dict[int, int] = {driver_pid: 0}
    lanes = [{"lane": 0, "pid": driver_pid, "role": "driver"}]
    for payload in pages + aux:
        pid = payload["pid"]
        if pid not in lane_of:
            lane_of[pid] = len(lanes)
            lanes.append({"lane": len(lanes), "pid": pid, "role": "worker"})

    def render_capture(payload: dict) -> dict:
        counts: dict[str, int] = {}
        spans = []
        for span in payload["spans"]:
            phase = span["phase"]
            occurrence = counts.get(phase, 0)
            counts[phase] = occurrence + 1
            record = {
                "id": span_id(payload["page"], phase, occurrence),
                "phase": phase,
                "parent": span["parent"],
                "start": round(span["start"] - t0, 6),
                "dur": round(span["end"] - span["start"], 6),
            }
            if span.get("meta"):
                record["meta"] = span["meta"]
            spans.append(record)
        return {
            "page": payload["page"],
            "lane": lane_of[payload["pid"]],
            "start": round(payload["t_start"] - t0, 6),
            "dur": round(payload["t_end"] - payload["t_start"], 6),
            "spans": spans,
        }

    out_pages = [render_capture(payload) for payload in pages]
    out_aux = [render_capture(payload) for payload in aux]

    driver_counts: dict[str, int] = {}
    out_driver = []
    for span in driver_spans:
        phase = span["phase"]
        occurrence = driver_counts.get(phase, 0)
        driver_counts[phase] = occurrence + 1
        record = {
            "id": span_id("<driver>", phase, occurrence),
            "phase": phase,
            "parent": span["parent"],
            "start": round(span["start"] - t0, 6),
            "dur": round(span["end"] - span["start"], 6),
        }
        if span.get("meta"):
            record["meta"] = span["meta"]
        out_driver.append(record)

    document = {
        "format": TIMELINE_FORMAT,
        "attrs": attrs or {},
        "wall_seconds": round(wall, 6),
        "lanes": lanes,
        "driver_spans": out_driver,
        "pages": out_pages,
    }
    if out_aux:
        document["aux"] = out_aux
    return document


def write_timeline(path: str | Path, timeline: dict) -> None:
    Path(path).write_text(
        json.dumps(timeline, indent=1) + "\n", encoding="utf-8"
    )


_NUMBER = (int, float)
#: the keys (and their types) every consumer of a document relies on
_LANE_KEYS = {"lane": int, "role": str}
_SPAN_KEYS = {
    "phase": str, "parent": (int, type(None)), "start": _NUMBER, "dur": _NUMBER,
}
_PAGE_KEYS = {
    "page": str, "lane": int, "start": _NUMBER, "dur": _NUMBER, "spans": list,
}


def _malformed(data: dict) -> str | None:
    """What a truncated or hand-edited document lacks, or None."""
    if not isinstance(data.get("wall_seconds"), _NUMBER):
        return "no numeric 'wall_seconds'"
    for key in ("lanes", "driver_spans", "pages"):
        if not isinstance(data.get(key), list):
            return f"no {key!r} list"
    entries = [(f"lanes[{i}]", lane, _LANE_KEYS)
               for i, lane in enumerate(data["lanes"])]
    entries += [(f"driver_spans[{i}]", span, _SPAN_KEYS)
                for i, span in enumerate(data["driver_spans"])]
    for i, page in enumerate(data["pages"]):
        entries.append((f"pages[{i}]", page, _PAGE_KEYS))
        if isinstance(page, dict) and isinstance(page.get("spans"), list):
            entries += [(f"pages[{i}].spans[{j}]", span, _SPAN_KEYS)
                        for j, span in enumerate(page["spans"])]
    for where, entry, keys in entries:
        if not isinstance(entry, dict):
            return f"{where} is not an object"
        for key, kind in keys.items():
            if not isinstance(entry.get(key), kind):
                return f"{where} has no well-typed {key!r}"
    return None


def load_timeline(path: str | Path) -> dict:
    """Read a ``timeline.json``; ``ValueError`` unless it is a complete
    :data:`TIMELINE_FORMAT` document."""
    data = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(data, dict) or data.get("format") != TIMELINE_FORMAT:
        raise ValueError(
            f"{path} is not a {TIMELINE_FORMAT} document "
            f"(format={data.get('format') if isinstance(data, dict) else None!r})"
        )
    problem = _malformed(data)
    if problem:
        raise ValueError(f"{path} is a malformed {TIMELINE_FORMAT} document: {problem}")
    return data
