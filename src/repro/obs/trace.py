"""The ``--trace`` view: the recorder's page captures as a JSONL span tree.

The analyzer's pipeline — parse → include resolution → phase-1 fixpoint
→ intersections/images → phase-2 checks — runs per page, possibly across
worker processes.  ``--profile`` (:mod:`repro.obs.metrics`) answers "how
much, in total"; the trace answers "where, in which page, under which
include".  It is not a recorder of its own: it renders the page captures
the span recorder (:data:`repro.obs.timeline.TIMELINE`) ships home in
``PageResult.timeline``, the same captures ``timeline.json`` is built
from.

* only the spans in :data:`~repro.obs.timeline.TRACE_PHASES` are
  rendered — the ones whose existence does not depend on which process
  held which memo entry — and a rendered span's parent is its nearest
  rendered ancestor, so a serial and a ``--jobs N`` run over the same
  project render the same tree;
* span **ids** are the timeline's: :func:`~repro.obs.timeline.span_id`
  of (page, phase, occurrence), never timestamps or memory addresses,
  so a trace line and the timeline span it renders share one id;
* a rendered span carries the perf delta
  (:meth:`repro.obs.metrics.PerfRecorder.diff`) observed while it was
  open, so the sum of span deltas and the ``--profile`` table agree by
  construction.

The JSONL stream (``--trace out.jsonl``) is one object per line:

``{"event": "meta", "format": "sqlciv-trace/2", ...}``
    first line; identifies the stream.
``{"event": "span", "id", "parent", "name", "start", "dur", "attrs",
   "perf"}``
    one per span, in pre-order: a ``run`` root, one ``page`` span per
    page in page order, and the page's rendered spans.  ``start`` is
    seconds relative to the enclosing page span (0 for roots) — offsets
    are comparable within a page, not across pages of a parallel run.
    ``attrs`` is the span's meta; ``perf`` holds the counter/timer
    deltas and gauge high-water marks seen inside the span; empty
    sections are omitted.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.timeline import TRACE_PHASES, span_id

TRACE_FORMAT = "sqlciv-trace/2"


def _record(sid: str, parent: str | None, name: str, start: float,
            dur: float, attrs: dict, perf: dict | None) -> str:
    record = {
        "event": "span",
        "id": sid,
        "parent": parent,
        "name": name,
        "start": round(start, 6),
        "dur": round(dur, 6),
        "attrs": attrs,
    }
    if perf:
        record["perf"] = perf
    return json.dumps(record, sort_keys=False)


def _page_lines(payload: dict, run_id: str) -> list[str]:
    """The ``page`` span and its rendered descendants, in pre-order."""
    page = payload["page"]
    base = payload["t_start"]
    page_id = span_id(page, "page", 0)
    lines = [_record(
        page_id, run_id, "page", 0.0, payload["t_end"] - base,
        {"page": page, **payload.get("meta", {})}, payload.get("perf"),
    )]
    # per recorded span: its own id if rendered, else its nearest
    # rendered ancestor's (spans precede their children in the list)
    anchor: list[str] = []
    occurrences: dict[str, int] = {}
    for span in payload["spans"]:
        parent = page_id if span["parent"] is None else anchor[span["parent"]]
        phase = span["phase"]
        if phase not in TRACE_PHASES:
            anchor.append(parent)
            continue
        occurrence = occurrences.get(phase, 0)
        occurrences[phase] = occurrence + 1
        sid = span_id(page, phase, occurrence)
        anchor.append(sid)
        lines.append(_record(
            sid, parent, phase, span["start"] - base,
            span["end"] - span["start"], span.get("meta", {}), span.get("perf"),
        ))
    return lines


def render_run(page_payloads: list[dict | None], attrs: dict | None = None) -> str:
    """The JSONL document for one run: meta line + pre-order span lines.

    ``page_payloads`` are the per-page captures (``PageResult.timeline``)
    **in page order**; ``None`` entries (a page analyzed with recording
    off) are skipped.  Each page hangs under a synthetic ``run`` root.
    """
    pages = [payload for payload in page_payloads if payload]
    run_id = span_id("", "run", 0)
    lines = [
        json.dumps(
            {"event": "meta", "format": TRACE_FORMAT, "attrs": attrs or {},
             "spans_clock": "seconds relative to the enclosing page span"},
            sort_keys=False,
        ),
        _record(run_id, None, "run", 0.0,
                sum(p["t_end"] - p["t_start"] for p in pages),
                {"pages": len(pages)}, None),
    ]
    for payload in pages:
        lines.extend(_page_lines(payload, run_id))
    return "\n".join(lines) + "\n"


def write_run(path: str | Path, page_payloads: list[dict | None],
              attrs: dict | None = None) -> None:
    Path(path).write_text(render_run(page_payloads, attrs), encoding="utf-8")


def tree_shape(jsonl_text: str) -> list[tuple]:
    """The scheduling-invariant shape of a trace: (id, parent, name) per
    span line, in stream order.  Serial and parallel runs over the same
    project must agree on this (the equivalence the tests pin down)."""
    shape = []
    for line in jsonl_text.splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        if record.get("event") == "span":
            shape.append((record["id"], record["parent"], record["name"]))
    return shape
