"""The per-page file-dependency graph behind incremental re-analysis.

The batch pipeline's disk cache keys every page result by a hash of the
*whole project* (:func:`repro.analysis.diskcache.project_state_hash`):
sound, but any edit invalidates everything.  The analysis server instead
records, for every entry page, the exact set of files its analysis
observed — the entry page, its transitive include closure, parse
failures, and every file a dynamic include resolved to even when
interpretation skipped it (``include_once``, cycles).  That set is
collected in :class:`~repro.analysis.stringtaint.StringTaintAnalysis`
(``dep_files``) during include resolution and shipped in
:class:`~repro.analysis.analyzer.PageResult.deps`.

Invalidation semantics (the soundness argument is DESIGN.md §5e):

* **content edit** of file *F* — exactly the pages with *F* in their
  closure can change: re-queue ``dependents(F)``;
* **deletion** of *F* — ``dependents(F)``, plus every *layout-sensitive*
  page (a page with a dynamic or unresolved include, whose resolution
  is a function of the project layout itself, paper §4);
* **addition** of *F* — every layout-sensitive page, plus the dependents
  of any known file sharing *F*'s basename: include-name resolution maps
  each candidate name to the first matching file in sorted order, so a
  newly added file can re-route a name — but only a name with the same
  basename — away from the file that previously won it.

Everything not in the affected set replays its memoized verdict
untouched.  The graph is persisted alongside the disk cache
(``depgraph.json``) so a restarted daemon can answer ``invalidate``
before its first ``analyze``.
"""

from __future__ import annotations

import json
import logging
from pathlib import Path

from repro.analysis.diskcache import ANALYZER_CACHE_VERSION

log = logging.getLogger(__name__)

DEPGRAPH_FORMAT = "sqlciv-depgraph/1"


def _basename(rel: str) -> str:
    return rel.rsplit("/", 1)[-1]


class DependencyGraph:
    """Entry pages → file closures, with the reverse index that makes
    ``dependents`` O(1).  All paths are project-relative POSIX strings."""

    def __init__(self) -> None:
        #: page → its dependency closure (always contains the page itself)
        self._pages: dict[str, frozenset[str]] = {}
        #: pages whose verdicts depend on the project layout too
        self._layout_sensitive: set[str] = set()
        #: file → pages whose closure contains it
        self._rdeps: dict[str, set[str]] = {}
        #: basename → known files carrying it (for addition re-routing)
        self._basenames: dict[str, set[str]] = {}

    # -- recording ---------------------------------------------------------

    def record(self, page: str, deps, layout_sensitive: bool) -> None:
        """(Re-)register a page's closure after it was analyzed."""
        self.forget(page)
        closure = frozenset(deps) | {page}
        self._pages[page] = closure
        if layout_sensitive:
            self._layout_sensitive.add(page)
        for file in closure:
            self._rdeps.setdefault(file, set()).add(page)
            self._basenames.setdefault(_basename(file), set()).add(file)

    def forget(self, page: str) -> None:
        closure = self._pages.pop(page, None)
        self._layout_sensitive.discard(page)
        if closure is None:
            return
        for file in closure:
            pages = self._rdeps.get(file)
            if pages is not None:
                pages.discard(page)
                if not pages:
                    del self._rdeps[file]
                    names = self._basenames.get(_basename(file))
                    if names is not None:
                        names.discard(file)
                        if not names:
                            del self._basenames[_basename(file)]

    # -- queries -----------------------------------------------------------

    def pages(self) -> list[str]:
        return sorted(self._pages)

    def files(self) -> list[str]:
        return sorted(self._rdeps)

    def has_page(self, page: str) -> bool:
        return page in self._pages

    def knows_file(self, rel: str) -> bool:
        return rel in self._rdeps

    def deps_of(self, page: str) -> frozenset[str]:
        return self._pages.get(page, frozenset())

    def is_layout_sensitive(self, page: str) -> bool:
        return page in self._layout_sensitive

    def layout_sensitive_pages(self) -> set[str]:
        return set(self._layout_sensitive)

    def dependents(self, rel: str) -> set[str]:
        """Pages whose closure contains ``rel``."""
        return set(self._rdeps.get(rel, ()))

    def affected_by(
        self,
        changed=(),
        added=(),
        deleted=(),
    ) -> set[str]:
        """Every page a batch of filesystem events can have influenced
        (the invalidation rules in the module docstring)."""
        affected: set[str] = set()
        for rel in changed:
            affected |= self.dependents(rel)
        layout = self._layout_sensitive if (added or deleted) else set()
        affected |= set(layout)
        for rel in deleted:
            affected |= self.dependents(rel)
        for rel in added:
            for known in self._basenames.get(_basename(rel), ()):
                affected |= self.dependents(known)
        return affected

    # -- persistence -------------------------------------------------------

    def to_dict(self, root: str = "") -> dict:
        return {
            "format": DEPGRAPH_FORMAT,
            "version": ANALYZER_CACHE_VERSION,
            "root": root,
            "pages": {
                page: {
                    "deps": sorted(closure),
                    "layout_sensitive": page in self._layout_sensitive,
                }
                for page, closure in sorted(self._pages.items())
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DependencyGraph":
        graph = cls()
        for page, entry in data.get("pages", {}).items():
            graph.record(
                page, entry.get("deps", ()), entry.get("layout_sensitive", False)
            )
        return graph

    def save(self, path: str | Path, root: str = "") -> None:
        payload = json.dumps(self.to_dict(root=root), indent=2) + "\n"
        target = Path(path)
        tmp = target.with_suffix(".tmp")
        tmp.write_text(payload, encoding="utf-8")
        tmp.replace(target)

    @classmethod
    def load(cls, path: str | Path, root: str = "") -> "DependencyGraph | None":
        """The persisted graph, or None when absent/stale/corrupt —
        a missing graph only costs precision on the first requests, never
        soundness, so every failure mode is a quiet miss."""
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if not isinstance(data, dict):
            return None
        if data.get("format") != DEPGRAPH_FORMAT:
            return None
        if data.get("version") != ANALYZER_CACHE_VERSION:
            log.info("persisted depgraph is from cache version %s — ignored",
                     data.get("version"))
            return None
        if root and data.get("root") not in ("", root):
            return None
        try:
            return cls.from_dict(data)
        except (TypeError, AttributeError):
            return None
