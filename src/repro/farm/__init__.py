"""The analysis farm (parallel execution layer).

``run_pages(jobs>1)`` fans entry pages out to a pool of persistent
worker processes over one shared task queue: the driver queues the
largest entry files first and each idle worker pulls the largest page
left.  Each worker runs the same per-page path a serial run does and
keeps its own content-addressed verdict and image memos.

The driver (:class:`repro.farm.driver.AnalysisFarm`) merges results in
page order, so ``--jobs N`` output is byte-identical to serial; see
DESIGN.md §5k for the argument.
"""

from .driver import AnalysisFarm

__all__ = ["AnalysisFarm"]
