"""The typed metrics registry: counters, timers, gauges, histograms.

One process-wide :class:`MetricsRegistry` (:data:`PERF`) collects

* **counters** — monotone event counts (cache hits/misses per cache,
  fixpoint iterations, pages analyzed, …),
* **timers** — cumulative wall-clock seconds per named phase
  (``phase1.string_analysis``, ``phase2.checks``, ``fingerprint`` …),
* **gauges** — high-water marks (peak memo sizes, largest subgrammar),
* **histograms** — fixed-bucket distributions (phase durations, memo
  lookup latencies, grammar sizes, serialized page bytes).  Bucket
  bounds are fixed per metric name at first observation (picked by
  :func:`buckets_for` unless given explicitly), so two processes that
  observe the same metric always agree on the bucket layout and their
  snapshots merge by elementwise addition.

Everything in a snapshot is a plain ``int``/``float``/``list`` in a
flat dict, so it is trivially picklable: parallel analysis workers ship
their deltas back to the driver, which folds them into its own registry
**in page order** (counters/timers/histograms add, gauges take the
max).  Addition is commutative, so the merged totals are independent of
worker scheduling — the page-order convention additionally makes the
merge *sequence* deterministic, which keeps ``--json --profile``
documents reproducible field-for-field given identical per-page deltas.

Recording is cheap enough to leave on unconditionally — a dict update
(plus a bisect, for histograms) per event — and is surfaced only when
asked for (CLI ``--profile``, the daemon's metrics surface, the
benchmark harness).
"""

from __future__ import annotations

import time
from bisect import bisect_left
from contextlib import contextmanager

# -- fixed bucket layouts -----------------------------------------------------

#: latency buckets (seconds): sub-millisecond memo lookups up to
#: multi-second whole-phase walls
SECONDS_BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)

#: size buckets (counts): grammar productions, cache entries, …
SIZE_BUCKETS = (1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144)

#: payload buckets (bytes): pickled page results, disk-cache entries
BYTES_BUCKETS = (
    1024, 8192, 65536, 262144, 1048576, 4194304, 16777216, 67108864,
)


def buckets_for(name: str) -> tuple[float, ...]:
    """The default bucket bounds for a histogram name.

    The convention is part of the metric-name contract (DESIGN 5i):
    ``*seconds*`` metrics get latency buckets, ``*bytes*`` metrics get
    payload buckets, everything else gets size buckets.
    """
    if "seconds" in name:
        return SECONDS_BUCKETS
    if "bytes" in name:
        return BYTES_BUCKETS
    return SIZE_BUCKETS


class MetricsRegistry:
    """A flat bag of counters, timers, gauges, and histograms."""

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.timers: dict[str, float] = {}
        self.gauges: dict[str, float] = {}
        #: name → {"bounds": tuple, "counts": [len(bounds)+1 ints]
        #: (last bucket = overflow), "sum": float, "count": int}
        self.histograms: dict[str, dict] = {}

    # -- recording ---------------------------------------------------------

    def incr(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def add_time(self, name: str, seconds: float) -> None:
        self.timers[name] = self.timers.get(name, 0.0) + seconds

    def gauge(self, name: str, value: float) -> None:
        """Record a high-water mark (keeps the max ever seen)."""
        if value > self.gauges.get(name, float("-inf")):
            self.gauges[name] = value

    def observe(
        self, name: str, value: float, buckets: tuple[float, ...] | None = None
    ) -> None:
        """Record one observation into the fixed-bucket histogram ``name``.

        ``buckets`` fixes the bounds on the histogram's first
        observation; afterwards (and by default) the registered bounds
        are used, so every process observing ``name`` buckets alike.
        """
        hist = self.histograms.get(name)
        if hist is None:
            bounds = tuple(buckets) if buckets else buckets_for(name)
            hist = {
                "bounds": bounds,
                "counts": [0] * (len(bounds) + 1),
                "sum": 0.0,
                "count": 0,
            }
            self.histograms[name] = hist
        hist["counts"][bisect_left(hist["bounds"], value)] += 1
        hist["sum"] += value
        hist["count"] += 1

    @contextmanager
    def timer(self, name: str):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - started)

    @contextmanager
    def latency(self, name: str):
        """Like :meth:`timer`, but records into the histogram ``name``."""
        started = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - started)

    # -- snapshots ---------------------------------------------------------

    def reset(self) -> None:
        self.counters.clear()
        self.timers.clear()
        self.gauges.clear()
        self.histograms.clear()

    def snapshot(self) -> dict:
        """A picklable copy: ``{"counters": …, "timers": …, "gauges": …}``
        plus a ``"histograms"`` section when any were observed (kept
        conditional so histogram-free snapshots match the historical
        three-section shape byte-for-byte)."""
        snap = {
            "counters": dict(self.counters),
            "timers": dict(self.timers),
            "gauges": dict(self.gauges),
        }
        if self.histograms:
            snap["histograms"] = {
                name: {
                    "bounds": list(hist["bounds"]),
                    "counts": list(hist["counts"]),
                    "sum": hist["sum"],
                    "count": hist["count"],
                }
                for name, hist in self.histograms.items()
            }
        return snap

    def diff(self, before: dict) -> dict:
        """What happened since ``before`` (an earlier :meth:`snapshot`).

        Counters, timers, and histograms subtract; gauges keep the
        current high-water mark (a max over a superset of events is
        still an upper bound).
        """
        now = self.snapshot()
        out = {
            "counters": _sub(now["counters"], before.get("counters", {})),
            "timers": _sub(now["timers"], before.get("timers", {})),
            "gauges": dict(now["gauges"]),
        }
        hist_delta = _sub_histograms(
            now.get("histograms", {}), before.get("histograms", {})
        )
        if hist_delta:
            out["histograms"] = hist_delta
        return out

    def merge(self, delta: dict) -> None:
        """Fold a worker's snapshot/diff into this registry."""
        for name, value in delta.get("counters", {}).items():
            self.incr(name, value)
        for name, value in delta.get("timers", {}).items():
            self.add_time(name, value)
        for name, value in delta.get("gauges", {}).items():
            self.gauge(name, value)
        for name, other in delta.get("histograms", {}).items():
            hist = self.histograms.get(name)
            if hist is None:
                self.histograms[name] = {
                    "bounds": tuple(other["bounds"]),
                    "counts": list(other["counts"]),
                    "sum": other["sum"],
                    "count": other["count"],
                }
                continue
            if tuple(other["bounds"]) != hist["bounds"]:
                # bounds are fixed per name, so this only happens when
                # two processes disagree about the layout — fold the
                # observations through the sum/count to stay monotone
                hist["sum"] += other["sum"]
                hist["count"] += other["count"]
                continue
            for index, count in enumerate(other["counts"]):
                hist["counts"][index] += count
            hist["sum"] += other["sum"]
            hist["count"] += other["count"]


#: Backwards-compatible name — everything that used to say
#: ``PerfRecorder`` keeps working against the extended registry.
PerfRecorder = MetricsRegistry


def _sub(now: dict, before: dict) -> dict:
    out = {}
    for name, value in now.items():
        delta = value - before.get(name, 0)
        if delta:
            out[name] = delta
    return out


def _sub_histograms(now: dict, before: dict) -> dict:
    out = {}
    for name, hist in now.items():
        prior = before.get(name)
        if prior is None:
            if hist["count"]:
                out[name] = hist
            continue
        count = hist["count"] - prior["count"]
        if not count:
            continue
        out[name] = {
            "bounds": list(hist["bounds"]),
            "counts": [
                value - old
                for value, old in zip(hist["counts"], prior["counts"])
            ],
            "sum": hist["sum"] - prior["sum"],
            "count": count,
        }
    return out


# -- derived views ------------------------------------------------------------

#: the counter pairs the cache-effectiveness table derives rates from:
#: (display label, hits counter, misses counter, extra counters shown)
CACHE_RATE_ROWS = (
    ("image cache", "image.cache.hits", "image.cache.misses",
     ("image.cache.replays",)),
    ("verdict memo", "policy.verdict_cache.hits",
     "policy.verdict_cache.misses", ()),
    ("parse memory", "parse.memory_hits", "parse.files", ()),
    ("include names", "include.names.hits", "include.names.builds", ()),
    ("sql context forms", "policy.context_forms.hits",
     "policy.context_forms.misses", ()),
    ("disk ast", "disk.ast.hits", "disk.ast.misses", ()),
    ("disk page", "disk.page.hits", "disk.page.misses", ()),
    ("server page memo", "server.pages.replayed",
     "server.pages.reanalyzed", ()),
)


def cache_rates(counters: dict) -> list[tuple[str, int, int, float, dict]]:
    """Hit-rate rows derivable from a snapshot's counters: a list of
    ``(label, hits, misses, rate, extras)`` for every cache that saw any
    traffic.  ``parse memory`` counts hits against parses performed, so
    its "misses" column is the parse count."""
    rows = []
    for label, hits_key, misses_key, extra_keys in CACHE_RATE_ROWS:
        hits = counters.get(hits_key, 0)
        misses = counters.get(misses_key, 0)
        total = hits + misses
        if not total:
            continue
        extras = {
            key: counters[key] for key in extra_keys if counters.get(key)
        }
        rows.append((label, hits, misses, hits / total, extras))
    return rows


def histogram_quantile(hist: dict, q: float) -> float | None:
    """An upper-bound estimate of the ``q``-quantile from bucket counts
    (the bucket bound the quantile observation fell at or below)."""
    total = hist["count"]
    if not total:
        return None
    rank = q * total
    seen = 0
    bounds = hist["bounds"]
    for index, count in enumerate(hist["counts"]):
        seen += count
        if seen >= rank and count:
            if index < len(bounds):
                return float(bounds[index])
            return float(hist["sum"] / total)  # overflow bucket: mean bound
    return float(bounds[-1]) if bounds else None


def render_table(snapshot: dict) -> str:
    """The ``--profile`` table: timers, histograms, cache effectiveness,
    then counters and gauges."""
    lines = ["== perf profile =="]
    timers = snapshot.get("timers", {})
    if timers:
        lines.append("phase timings:")
        width = max(len(n) for n in timers)
        for name in sorted(timers):
            lines.append(f"  {name:<{width}}  {timers[name]:9.3f}s")
    histograms = snapshot.get("histograms", {})
    if histograms:
        lines.append("histograms (count / mean / p50 / p99):")
        width = max(len(n) for n in histograms)
        for name in sorted(histograms):
            hist = histograms[name]
            count = hist["count"]
            mean = hist["sum"] / count if count else 0.0
            p50 = histogram_quantile(hist, 0.50)
            p99 = histogram_quantile(hist, 0.99)
            lines.append(
                f"  {name:<{width}}  {count:>7}  {mean:10.6g}"
                f"  {p50 if p50 is not None else 0:10.6g}"
                f"  {p99 if p99 is not None else 0:10.6g}"
            )
    rates = cache_rates(snapshot.get("counters", {}))
    if rates:
        lines.append("cache effectiveness:")
        width = max(len(label) for label, *_ in rates)
        for label, hits, misses, rate, extras in rates:
            extra = "".join(
                f"  {key.rsplit('.', 1)[-1]}={value}"
                for key, value in sorted(extras.items())
            )
            lines.append(
                f"  {label:<{width}}  {rate * 100:5.1f}% hit"
                f"  ({hits}/{hits + misses}){extra}"
            )
    counters = snapshot.get("counters", {})
    if counters:
        lines.append("counters:")
        width = max(len(n) for n in counters)
        for name in sorted(counters):
            lines.append(f"  {name:<{width}}  {counters[name]:>9}")
    gauges = snapshot.get("gauges", {})
    if gauges:
        lines.append("gauges (high-water marks):")
        width = max(len(n) for n in gauges)
        for name in sorted(gauges):
            value = gauges[name]
            shown = f"{value:g}" if isinstance(value, float) else str(value)
            lines.append(f"  {name:<{width}}  {shown:>9}")
    if len(lines) == 1:
        lines.append("(no events recorded)")
    return "\n".join(lines)


#: The process-wide registry.  Parallel workers each get their own copy
#: (a fresh process), take a :meth:`MetricsRegistry.snapshot` before a
#: page and ship ``PERF.diff(before)`` back with the page's result.
PERF = MetricsRegistry()
