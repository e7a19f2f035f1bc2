"""The farm driver: persistent workers, page fan-out, page-order merge.

:class:`AnalysisFarm` owns the pool — one shared task queue, one shared
result queue and a stop event.  Workers are plain daemon processes
running :func:`repro.farm.workers.farm_worker_main`; they survive
across batches, so a long-lived caller (the analysis daemon) pays fork
and warm-up once and shares one pool across every resident project.

:meth:`map_pages` runs one batch: the entry pages go onto the task
queue largest entry file first, and each idle worker pulls the largest
page left — the greedy longest-processing-time list schedule.

Determinism: results are merged **in page order** and every per-task
perf delta is merged into the driver's recorder — so output documents
and the telemetry invariants (hits+misses totals, pages.analyzed) are
byte-identical to a serial run regardless of which worker ran what,
when.

Failure isolation: every task and result envelope is tagged with its
batch id.  When a batch aborts, its undispatched tasks are drained;
envelopes that workers were still producing are discarded by the next
batch's collect loop (counted as ``farm.envelopes.stale_dropped``), so a
failed request never leaks results into a later batch — or a later
tenant.  A worker that died (killed, out of memory) is reported by
:meth:`AnalysisFarm.healthy`; the daemon replaces such a farm before
its next batch; a batch that finds a dead worker, or loses one while
it runs, raises :class:`FarmWorkerDied`.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_mod
import threading
from pathlib import Path

from repro.analysis.policies.config import DEFAULT_CONFIG, PolicyConfig
from repro.obs.metrics import PERF
from repro.obs.timeline import TIMELINE

from .workers import BatchConfig, farm_worker_main


class FarmWorkerDied(RuntimeError):
    """A farm worker process is gone; the farm cannot run batches."""


def _file_cost(path: Path) -> int:
    try:
        return path.stat().st_size
    except OSError:
        return 0


class AnalysisFarm:
    """A persistent worker pool fed from one task queue.

    Batches are serialized by an internal lock — concurrent daemon
    clients queue up rather than interleave task streams — but the pool
    itself is shared: the same workers (with their warm policy automata
    and per-project caches) serve every batch and every project.
    """

    def __init__(self, jobs: int) -> None:
        self.jobs = max(1, jobs)
        self._ctx = multiprocessing.get_context()
        self._batch_lock = threading.Lock()
        self._batch_counter = 0
        self._stop = self._ctx.Event()
        self._task_queue = self._ctx.Queue()
        self._result_queue = self._ctx.Queue()
        self._workers = []
        for index in range(self.jobs):
            process = self._ctx.Process(
                target=farm_worker_main,
                args=(self._task_queue, self._result_queue, self._stop),
                daemon=True,
                name=f"farm-worker-{index}",
            )
            process.start()
            self._workers.append(process)

    # -- batch execution ---------------------------------------------------

    def map_pages(
        self,
        project_root: str | Path,
        pages: list,
        audit: bool = False,
        cache_dir: str | None = None,
        cache_max_mb: float | None = None,
        project_state: str | None = None,
        policies: PolicyConfig = DEFAULT_CONFIG,
        profile: bool = False,
        epoch: int = 0,
    ) -> list:
        """Analyze ``pages`` on the farm; results in input order."""
        with self._batch_lock:
            return self._run_batch(
                Path(project_root), pages, audit, cache_dir, cache_max_mb,
                project_state, policies, profile, epoch,
            )

    def _run_batch(
        self, root, pages, audit, cache_dir, cache_max_mb, project_state,
        policies, profile, epoch,
    ) -> list:
        self._batch_counter += 1
        # a live worker would pull a dead one's share off the queue, and
        # the batch would look healthy: refuse it up front instead
        self._check_workers()
        config = BatchConfig(
            root=str(root),
            audit=audit,
            cache_dir=cache_dir,
            cache_max_mb=cache_max_mb,
            project_state=project_state,
            policies=policies,
            profile=profile,
            timeline=TIMELINE.mode,
            epoch=epoch,
            batch_id=f"{os.getpid()}:{self._batch_counter}",
        )
        # largest entry file first, page order breaking ties: each idle
        # worker then pulls the largest page left
        order = sorted(
            range(len(pages)),
            key=lambda index: (-_file_cost(Path(pages[index])), index),
        )
        for index in order:
            self._task_queue.put(("page", config, str(pages[index]), index))
        try:
            return self._collect(config, len(pages))
        except Exception:
            # A failed batch must not poison the persistent farm: pull
            # its undispatched tasks back out of the task queue.  Tasks
            # a worker already took will still emit envelopes later,
            # but they carry this batch's id, so the next batch's
            # _collect discards them.
            self._drain_task_queue()
            raise

    def _drain_task_queue(self) -> None:
        while True:
            try:
                self._task_queue.get_nowait()
            except queue_mod.Empty:
                return

    def _collect(self, config, n_pages) -> list:
        results: list = [None] * n_pages
        outstanding = n_pages
        while outstanding > 0:
            # a dead worker's task never reports back, and the live
            # workers' envelopes would keep a get-timeout from firing
            self._check_workers()
            try:
                batch_tag, envelope = self._result_queue.get(timeout=0.5)
            except queue_mod.Empty:
                continue
            if batch_tag != config.batch_id:
                # leftover from an aborted earlier batch (possibly a
                # different project's) — never merge it into this one
                PERF.incr("farm.envelopes.stale_dropped")
                continue
            outstanding -= 1
            kind, *fields, perf = envelope
            if perf:
                PERF.merge(perf)
            if kind == "page":
                index, result = fields
                results[index] = result
            elif kind == "error":
                task_kind, tb = fields
                raise RuntimeError(
                    f"farm worker failed on a {task_kind!r} task:\n{tb}"
                )
            else:
                raise RuntimeError(f"unknown farm envelope kind {kind!r}")

        missing = [i for i, result in enumerate(results) if result is None]
        if missing:
            raise RuntimeError(f"farm batch lost results for pages {missing}")
        return results

    # -- lifecycle ---------------------------------------------------------

    def healthy(self) -> bool:
        """True while every worker process is alive."""
        return all(process.is_alive() for process in self._workers)

    def _check_workers(self) -> None:
        for process in self._workers:
            if not process.is_alive():
                raise FarmWorkerDied(
                    f"farm worker {process.name} died "
                    f"(exitcode {process.exitcode})"
                )

    def shutdown(self) -> None:
        self._stop.set()
        # one stop task per worker: an idle worker holds the queue's
        # read lock while it waits, so without these every shutdown
        # would wait out the workers' idle recheck
        for _ in self._workers:
            self._task_queue.put(None)
        for process in self._workers:
            process.join(timeout=2.0)
        for process in self._workers:
            if process.is_alive():
                process.terminate()
        for q in (self._task_queue, self._result_queue):
            q.cancel_join_thread()
            q.close()

    def __enter__(self) -> "AnalysisFarm":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
