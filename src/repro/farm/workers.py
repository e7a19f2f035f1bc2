"""Farm worker processes: the execution side of the analysis farm.

Each worker owns one task queue and loops: take from its own queue
(FIFO — the driver placed the biggest tasks first), else **steal** the
front of the most convenient victim's queue, else sleep a couple of
milliseconds.  A task is one entry page, run through the exact
:func:`_page_result` path a serial run takes (disk cache, phase 1,
phase 2, audit).

Every envelope carries the worker's :meth:`PERF.diff` for the task, so
the driver's merged counters are scheduling-invariant.  Workers keep
per-``(root, epoch)`` parse caches and resolvers — the daemon bumps a
project's epoch on invalidation, which conservatively discards the
worker-local state, while the verdict and image memos stay valid
because they are keyed by content.
"""

from __future__ import annotations

import pickle
import queue
import time
import traceback
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.analyzer import PageResult, _page_result, _warm_worker_caches
from repro.analysis.diskcache import DiskCache
from repro.obs.gcprobe import GC_PROBE
from repro.obs.metrics import PERF
from repro.obs.timeline import TIMELINE, append_span
from repro.php.includes import IncludeResolver


@dataclass(frozen=True)
class BatchConfig:
    """Everything a task needs to know about its batch — picklable, and
    shipped inside every task so persistent workers can serve many
    projects (and many epochs of one project) interleaved."""

    root: str
    audit: bool
    cache_dir: str | None
    cache_max_mb: float | None
    project_state: str | None
    policies: object
    profile: bool
    #: the driver's ``TIMELINE.mode``: (recording, perf deltas)
    timeline: tuple[bool, bool]
    epoch: int
    #: unique per (driver pid, batch ordinal): tags result envelopes
    batch_id: str


#: Worker-local analysis state per ``(root, epoch)``: parse cache,
#: include resolver, disk cache handle.  Bounded — a daemon-shared
#: worker may see many projects.
_PROJECT_ENVS: OrderedDict[tuple, dict] = OrderedDict()
_PROJECT_ENVS_CAP = 8


def _project_env(config: BatchConfig) -> dict:
    key = (config.root, config.epoch)
    env = _PROJECT_ENVS.get(key)
    if env is None:
        env = {
            "parse_cache": {},
            "resolver": IncludeResolver(config.root),
            "disk_cache": (
                DiskCache(config.cache_dir, max_mb=config.cache_max_mb)
                if config.cache_dir
                else None
            ),
        }
        _PROJECT_ENVS[key] = env
        while len(_PROJECT_ENVS) > _PROJECT_ENVS_CAP:
            _PROJECT_ENVS.popitem(last=False)
    else:
        _PROJECT_ENVS.move_to_end(key)
    return env


def _configure_obs(config: BatchConfig) -> None:
    if TIMELINE.mode != config.timeline:
        TIMELINE.configure(*config.timeline)
    GC_PROBE.configure(config.profile)


def _profile_ipc(config: BatchConfig, result: PageResult) -> None:
    """The worker-side IPC accounting ``--profile`` opts into: the
    result is pickled once more by the queue machinery on the way home,
    and measuring our own dump attributes that cost to this page."""
    if not config.profile:
        return
    started = time.perf_counter()
    size = len(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
    finished = time.perf_counter()
    PERF.incr("ipc.page_results")
    PERF.incr("ipc.page_bytes_total", size)
    PERF.gauge("ipc.page_bytes.max", size)
    PERF.observe("ipc.page_bytes", size)
    PERF.add_time("ipc.pickle", finished - started)
    if result.timeline is not None:
        append_span(result.timeline, "pickle", started, finished, bytes=size)


def _execute(task, stolen: bool):
    """Run one page task; the envelope the driver's collect loop reads."""
    _, config, page, index = task
    before = PERF.snapshot()
    try:
        _configure_obs(config)
        env = _project_env(config)
        _warm_worker_caches(config.policies)
        result = _page_result(
            Path(config.root),
            page,
            config.audit,
            env["parse_cache"],
            env["resolver"],
            env["disk_cache"],
            config.project_state,
            config.policies,
        )
        _profile_ipc(config, result)
        result.perf = None
        return ("page", index, result, PERF.diff(before), stolen)
    except Exception:
        return ("error", "page", traceback.format_exc(), PERF.diff(before), stolen)


def farm_worker_main(index, task_queues, result_queue, stop_event):
    """One worker process: take → steal → sleep, until told to stop."""
    own = task_queues[index]
    victims = [
        task_queues[(index + step) % len(task_queues)]
        for step in range(1, len(task_queues))
    ]
    while not stop_event.is_set():
        task = None
        stolen = False
        try:
            task = own.get_nowait()
        except queue.Empty:
            for victim in victims:
                try:
                    task = victim.get_nowait()
                    stolen = True
                    break
                except queue.Empty:
                    continue
        if task is None:
            time.sleep(0.002)
            continue
        # every envelope is tagged with its batch id so the driver can
        # discard leftovers from an aborted batch instead of mistaking
        # them for the current batch's results
        result_queue.put((task[1].batch_id, _execute(task, stolen)))
