"""The farm driver: persistent workers, page fan-out, page-order merge.

:class:`AnalysisFarm` owns the pool — one task queue per worker, one
shared result queue and a stop event.  Workers are plain daemon
processes running :func:`repro.farm.workers.farm_worker_main`; they
survive across batches, so a long-lived caller (the analysis daemon)
pays fork and warm-up once and shares one pool across every resident
project.

:meth:`map_pages` runs one batch: the entry pages, placed LPT-first by
:class:`WorkStealingScheduler` (costed by file size) with runtime
stealing between the workers themselves.

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

from repro.obs.metrics import PERF
from repro.obs.timeline import TIMELINE

from .scheduler import FarmTask, WorkStealingScheduler
from .workers import BatchConfig, farm_worker_main


class FarmWorkerDied(RuntimeError):
    """A farm worker process is gone; the farm cannot run batches."""


def _file_cost(path: Path) -> float:
    try:
        return float(path.stat().st_size) + 1.0
    except OSError:
        return 1.0


class AnalysisFarm:
    """A persistent work-stealing worker pool.

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
        #: released once per queued task (and once per worker at
        #: shutdown): what idle workers block on
        self._ready = self._ctx.Semaphore(0)
        self._task_queues = [self._ctx.Queue() for _ in range(self.jobs)]
        self._result_queue = self._ctx.Queue()
        self._workers = []
        for index in range(self.jobs):
            process = self._ctx.Process(
                target=farm_worker_main,
                args=(
                    index, self._task_queues, self._ready,
                    self._result_queue, self._stop,
                ),
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
        policies=None,
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
        # a live worker would steal a dead one's share, and the batch
        # would look healthy: refuse it up front instead
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
        scheduler = WorkStealingScheduler(self.jobs)
        scheduler.plan([
            FarmTask(index, "page", _file_cost(Path(page)),
                     ("page", config, str(page), index))
            for index, page in enumerate(pages)
        ])
        for worker_index, planned in enumerate(scheduler.queues):
            for task in planned:
                self._task_queues[worker_index].put(task.payload)
                self._ready.release()
        try:
            return self._collect(config, len(pages))
        except Exception:
            # A failed batch must not poison the persistent farm: pull
            # its undispatched tasks back out of the worker queues.
            # Tasks a worker already took will still emit envelopes
            # later, but they carry this batch's id, so the next
            # batch's _collect discards them.
            self._drain_task_queues()
            raise

    def _drain_task_queues(self) -> None:
        for task_queue in self._task_queues:
            while True:
                try:
                    task_queue.get_nowait()
                except queue_mod.Empty:
                    break
                # the drained task's token (a worker may already hold
                # it; it then finds nothing and waits again)
                self._ready.acquire(block=False)

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
            kind, *fields, perf, stolen = envelope
            if perf:
                PERF.merge(perf)
            if stolen:
                PERF.incr("farm.tasks.stolen")
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
        for _ in self._workers:
            self._ready.release()
        for process in self._workers:
            process.join(timeout=2.0)
        for process in self._workers:
            if process.is_alive():
                process.terminate()
        for q in self._task_queues + [self._result_queue]:
            q.cancel_join_thread()
            q.close()

    def __enter__(self) -> "AnalysisFarm":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
