"""Deterministic work-stealing scheduler (planning + simulation).

Two consumers:

* the farm driver (:mod:`repro.farm.driver`) uses :meth:`plan` to place
  the initial task batch into per-worker queues — longest processing
  time first onto the least-loaded queue, the classic 4/3-approximation
  for makespan — and leaves *runtime* stealing to the worker processes
  themselves (an idle worker takes the front of a victim's queue: the
  real queues are FIFO pipes, and under LPT placement the front is the
  victim's largest remaining task, which is what a steal should move);
* the unit tests drive :meth:`simulate`, an event-driven model of the
  same take/steal discipline under a fake clock, so stealing behaviour,
  makespan bounds, and determinism are testable without spawning a
  single process.

Everything here is deterministic: ties break on submission order and
worker index, never on wall time or hashing.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field


@dataclass(frozen=True)
class FarmTask:
    """One schedulable unit of work.

    ``seq`` is the submission ordinal (the determinism tie-break),
    ``cost`` the driver's runtime estimate (seconds — entry-file bytes
    scaled, for pages), ``payload`` whatever the executor needs.
    """

    seq: int
    kind: str  # "page"
    cost: float
    payload: object = None


@dataclass
class SimReport:
    """What one :meth:`WorkStealingScheduler.simulate` run observed."""

    makespan: float = 0.0
    busy: list[float] = field(default_factory=list)
    steals: int = 0
    #: (worker, task.seq, start_time) in execution order
    schedule: list[tuple[int, int, float]] = field(default_factory=list)


class WorkStealingScheduler:
    """Per-worker deques with LPT placement and deterministic stealing."""

    def __init__(self, workers: int) -> None:
        if workers < 1:
            raise ValueError("need at least one worker")
        self.workers = workers
        self.queues: list[deque[FarmTask]] = [deque() for _ in range(workers)]
        self._load = [0.0] * workers
        self.steals = 0

    # -- planning ----------------------------------------------------------

    def plan(self, tasks: list[FarmTask]) -> list[list[FarmTask]]:
        """Assign ``tasks`` LPT-first and return the per-worker queues.

        Descending cost, submission order breaking ties, each task onto
        the currently least-loaded worker (lowest index on load ties) —
        so the same task list always yields the same placement.
        """
        for task in sorted(tasks, key=lambda t: (-t.cost, t.seq)):
            target = min(range(self.workers), key=lambda i: (self._load[i], i))
            self.queues[target].append(task)
            self._load[target] += task.cost
        return [list(queue) for queue in self.queues]

    def push(self, task: FarmTask, worker: int) -> None:
        self.queues[worker].append(task)
        self._load[worker] += task.cost

    def remaining(self, worker: int) -> float:
        return sum(task.cost for task in self.queues[worker])

    # -- the take/steal discipline ----------------------------------------

    def take(self, worker: int) -> tuple[FarmTask, bool] | None:
        """The next task for ``worker``: its own queue front, else a
        steal from the front of the most-loaded victim (lowest index on
        ties).  Queues are FIFO both ways because the real per-worker
        queues are ``multiprocessing.Queue`` pipes, which only expose
        their front — and LPT placement already put each queue's largest
        remaining task there.  Returns ``(task, stolen)`` or ``None``
        when every queue is empty."""
        own = self.queues[worker]
        if own:
            return own.popleft(), False
        victims = [i for i in range(self.workers) if i != worker and self.queues[i]]
        if not victims:
            return None
        victim = min(victims, key=lambda i: (-self.remaining(i), i))
        self.steals += 1
        return self.queues[victim].popleft(), True

    # -- fake-clock simulation --------------------------------------------

    def simulate(self) -> SimReport:
        """Event-driven run of the current queues under a fake clock.

        Each worker repeatedly takes (or steals) a task and advances its
        own clock by the task's cost; the next event always goes to the
        worker with the smallest clock (lowest index on ties).  No wall
        time, no randomness: a seeded task list replays identically.
        """
        report = SimReport(busy=[0.0] * self.workers)
        clocks = [0.0] * self.workers
        idle: set[int] = set()
        while len(idle) < self.workers:
            worker = min(
                (i for i in range(self.workers) if i not in idle),
                key=lambda i: (clocks[i], i),
            )
            taken = self.take(worker)
            if taken is None:
                idle.add(worker)
                continue
            task, stolen = taken
            if stolen:
                report.steals += 1
            report.schedule.append((worker, task.seq, clocks[worker]))
            clocks[worker] += task.cost
            report.busy[worker] += task.cost
        report.makespan = max(clocks) if clocks else 0.0
        return report
