"""The traced pass's span recorder.

Spans are recorded by the benchmark's own wrappers around the public
functions each layer exposes, installed at the attribute their callers
look up (``repro.analysis.analyzer.check_hotspot`` rather than
``repro.analysis.policy.check_hotspot``, because the analyzer imported
the name).  Nothing under ``src/`` changes.  Every wrapper returns the
wrapped value unchanged.

A span is ``[name, start, end, parent, child_seconds]``; spans stay in
memory and are written out as JSON lines when the pass ends.  A layer's
self time is its spans' durations minus the time their child spans
cover.  Calls inside forked farm workers run the wrappers too, but their
spans stay in the worker; ``batch-farm``'s worker-side layers are read
from the program's own timeline recorder and counters instead.
"""

from __future__ import annotations

import importlib
import json
import sys
import threading
import time
from collections import Counter, defaultdict
from pathlib import Path

#: span name → the (module, attribute path) pairs its callers look up
TARGETS = {
    "php.parse": [
        ("repro.analysis.stringtaint", "parse"),
        ("repro.oracle.interp", "parse"),
    ],
    "phase1": [("repro.analysis.stringtaint", "StringTaintAnalysis.analyze_file")],
    "image": [("repro.analysis.absdom", "fst_image")],
    "intersect": [
        ("repro.analysis.policy", "intersect"),
        ("repro.analysis.policy", "intersection_is_empty"),
        ("repro.analysis.policies.base", "intersection_is_empty"),
    ],
    "prefilter": [("repro.lang.abstraction", "prefilter_decides_empty")],
    "earley.membership": [("repro.oracle.differ", "char_membership")],
    "cascade": [
        ("repro.analysis.analyzer", "check_hotspot"),
        ("repro.oracle.differ", "check_hotspot"),
        ("repro.analysis.policies.base", "SinkPolicy.check"),
    ],
    "audit": [("repro.analysis.analyzer", "audit_page")],
    "diskcache.load": [("repro.analysis.diskcache", "DiskCache.load")],
    "diskcache.store": [("repro.analysis.diskcache", "DiskCache.store")],
    "oracle.analyze": [("repro.oracle.fuzz", "PageOracle")],
    "oracle.execute": [("repro.oracle.fuzz", "execute_page")],
    "oracle.check": [("repro.oracle.differ", "PageOracle.check_hit")],
}

#: span name → which results count as positive outcomes (prefilter
#: decided the query, disk-cache hit, concrete sink hits)
POSITIVE = {
    "prefilter": lambda result: int(result is True),
    "diskcache.load": lambda result: int(result is not None),
    "oracle.execute": len,
}


class Tracer:
    """Wraps the ``TARGETS`` and keeps every span they record."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.positives: Counter[str] = Counter()
        self._local = threading.local()

    def install(self) -> None:
        """Wrap every target; a target a later refactor removed is
        reported on stderr and its metrics read zero."""
        for name, targets in TARGETS.items():
            for module_name, path in targets:
                *parents, attr = path.split(".")
                try:
                    owner = importlib.import_module(module_name)
                    for part in parents:
                        owner = getattr(owner, part)
                    original = getattr(owner, attr)
                except (ImportError, AttributeError):
                    print(
                        f"perfbench: cannot trace {module_name}.{path}",
                        file=sys.stderr,
                    )
                    continue
                setattr(owner, attr, self._wrapper(name, original))

    def _wrapper(self, name: str, original):
        spans, local, positives = self.spans, self._local, self.positives
        positive = POSITIVE.get(name)

        def traced(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else None, 0.0]
            spans.append(span)
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if span[3] is not None:
                    span[3][4] += span[2] - span[1]
            if positive is not None:
                positives[name] += positive(result)
            return result

        return traced

    def summary(self) -> dict:
        """Calls, self seconds and positive outcomes per span name."""
        calls: Counter[str] = Counter()
        self_s: dict[str, float] = defaultdict(float)
        for name, start, end, _parent, children in self.spans:
            calls[name] += 1
            self_s[name] += (end - start) - children
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "positives": dict(self.positives),
        }

    def write(self, path: Path) -> None:
        index = {id(span): number for number, span in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            for number, (name, start, end, parent, _) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": number,
                    "name": name,
                    "start": start,
                    "end": end,
                    "parent": None if parent is None else index[id(parent)],
                }) + "\n")


def timeline_phase_seconds(page_payloads: list) -> dict[str, float]:
    """Self seconds per phase from the program's ``--profile=timeline``
    recorder (the same accounting ``sqlciv stats --json`` reports), over
    the given page captures plus every span recorded outside a page."""
    try:
        from repro.obs.stats import summarize
        from repro.obs.timeline import TIMELINE, assemble
    except ImportError:
        print("perfbench: no timeline recorder; its phases read 0", file=sys.stderr)
        return {}
    document = assemble(
        page_payloads,
        TIMELINE.drain_driver_spans(),
        aux_payloads=TIMELINE.drain_adopted(),
    )
    return {
        phase: row["self_seconds"]
        for phase, row in summarize(document)["phases"].items()
    }


def enable_timeline() -> None:
    try:
        from repro.obs.timeline import TIMELINE
    except ImportError:
        return
    TIMELINE.configure(True)
