"""The work-stealing analysis farm (parallel execution layer).

``run_pages(jobs>1)`` fans entry pages out to a pool of persistent
worker processes over per-worker task queues with real work stealing
(an idle worker drains its victims' queues).  Each worker runs the same
per-page path a serial run does and keeps its own content-addressed
verdict and image memos.

The driver (:class:`repro.farm.driver.AnalysisFarm`) merges results in
page order, so ``--jobs N`` output is byte-identical to serial; see
DESIGN.md §5k for the argument.
"""

from .driver import AnalysisFarm
from .scheduler import FarmTask, WorkStealingScheduler

__all__ = [
    "AnalysisFarm",
    "FarmTask",
    "WorkStealingScheduler",
]
