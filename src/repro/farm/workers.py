"""Farm worker processes: the execution side of the analysis farm.

Every worker loops on the farm's one shared task queue: it takes the
next task (the driver queued the largest entry files first), runs it
and puts the envelope on the result queue.  An idle worker is blocked
in the queue wait and costs no CPU.  A ``None`` task, one per worker at
shutdown, makes it exit.  A task is one entry page, run through the
exact :func:`_page_result` path a serial run takes (disk cache, phase
1, phase 2, audit).

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


def _execute(task):
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
        return ("page", index, result, PERF.diff(before))
    except Exception:
        return ("error", "page", traceback.format_exc(), PERF.diff(before))


#: How long an idle worker waits on the task queue before it looks at
#: the stop event: the way out for a worker that never sees shutdown's
#: ``None`` because a killed peer died holding the queue's read lock,
#: not a polling interval.
_IDLE_RECHECK_S = 0.5


def farm_worker_main(task_queue, result_queue, stop_event):
    """One worker process: take the next task, until told to stop."""
    while not stop_event.is_set():
        try:
            task = task_queue.get(timeout=_IDLE_RECHECK_S)
        except queue.Empty:
            continue
        if task is None:
            return
        # every envelope is tagged with its batch id so the driver can
        # discard leftovers from an aborted batch instead of mistaking
        # them for the current batch's results
        result_queue.put((task[1].batch_id, _execute(task)))
