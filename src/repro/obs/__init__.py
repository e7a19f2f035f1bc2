"""Unified observability layer: metrics, traces, timelines, exposition.

This package subsumed the older top-level ``repro.perf`` and
``repro.trace`` modules (now removed — import from here directly) and
adds the instruments the ROADMAP's scalability work needs:

* :mod:`repro.obs.metrics` — the typed metrics registry behind the
  process-wide :data:`~repro.obs.metrics.PERF` singleton: counters,
  timers, gauges, and **fixed-bucket histograms** (phase durations,
  grammar sizes, memo lookup latencies).  Snapshots are plain dicts, so
  they pickle across the ``ProcessPoolExecutor`` boundary and merge
  deterministically in page order.
* :mod:`repro.obs.timeline` — the one span recorder
  (:data:`~repro.obs.timeline.TIMELINE`): phase-tagged spans captured
  per page wherever the page ran, with worker-lane attribution, written
  as ``timeline.json`` (``--profile=timeline``).
* :mod:`repro.obs.trace` — the ``--trace`` view of the same page
  captures: a deterministic JSONL span tree over the memo-independent
  phases, sharing the timeline's span ids.
* :mod:`repro.obs.stats` — ``sqlciv stats timeline.json``: a text gantt
  plus the bottleneck report that names the dominant phase and the
  serial fraction of a parallel run.
* :mod:`repro.obs.gcprobe` — the ``--profile`` hook that counts and
  times cyclic-collector pauses (``gc.collections.gen*``, ``gc.pause``).
* :mod:`repro.obs.prometheus` — Prometheus text-format exposition of a
  metrics snapshot (the daemon's ``--metrics-addr`` endpoint).

Everything here is observation only: with every instrument enabled, the
analysis outputs (``--json``, ``--sarif``, exit codes) are byte-for-byte
identical to an uninstrumented run (DESIGN 5i).
"""

from .metrics import PERF, MetricsRegistry, PerfRecorder, render_table
from .timeline import TIMELINE, TIMELINE_FORMAT

__all__ = [
    "PERF",
    "MetricsRegistry",
    "PerfRecorder",
    "render_table",
    "TIMELINE",
    "TIMELINE_FORMAT",
]
