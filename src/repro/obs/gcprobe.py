"""Collector telemetry for ``--profile``: what CPython's cyclic GC costs.

While installed, a :data:`gc.callbacks` hook counts every collection per
generation (``gc.collections.gen0``/``gen1``/``gen2``) and adds its
duration to the ``gc.pause`` timer.  Under ``--profile=timeline`` each
pause that interrupts an open span is also recorded as a ``gc`` span
under it, so ``sqlciv stats`` attributes the pause instead of spreading
it over ``absdom`` or ``cascade:*``.

The hook is installed only when profiling is on, and only observes:
collections happen exactly when they would without it (DESIGN 5i).
"""

from __future__ import annotations

import gc
import time

from .metrics import PERF
from .timeline import TIMELINE

_COUNTERS = ("gc.collections.gen0", "gc.collections.gen1", "gc.collections.gen2")


class CollectorProbe:
    """The process-wide hook (:data:`GC_PROBE`); ``configure`` is idempotent."""

    def __init__(self) -> None:
        self._started = 0.0

    @property
    def installed(self) -> bool:
        return self._callback in gc.callbacks

    def configure(self, enabled: bool) -> None:
        if enabled and not self.installed:
            gc.callbacks.append(self._callback)
        elif not enabled and self.installed:
            gc.callbacks.remove(self._callback)

    def _callback(self, phase: str, info: dict) -> None:
        now = time.perf_counter()
        if phase == "start":
            self._started = now
            return
        PERF.incr(_COUNTERS[info["generation"]])
        PERF.add_time("gc.pause", now - self._started)
        TIMELINE.record("gc", self._started, now)


#: Installed by the CLI (and by farm workers) when ``--profile`` is on.
GC_PROBE = CollectorProbe()
