"""The analysis daemon: ``sqlciv serve <root> --socket /run/sqlciv.sock``.

A long-running process that answers :mod:`repro.server.protocol`
requests over a Unix or TCP socket.  What staying resident buys:

* the **parsed-AST store** (the serial driver's parse cache) survives
  across requests, evicted per-file on ``invalidate``;
* the fingerprint-keyed **verdict memo** and the **FST-image memo** are
  process-global, so repeated grammar shapes are recognized across
  requests and across pages;
* each page's last :class:`~repro.analysis.analyzer.PageResult` is
  memoized, and an ``invalidate`` re-queues *only* the pages whose
  file-dependency closure the change intersects
  (:mod:`repro.server.depgraph`) — everything else replays its verdict;
* each project's **layout** (:class:`ProjectLayout`: the include
  resolver's file list and name tables, and the entry-page list) is
  built once and rebuilt only after an ``invalidate`` reports a file
  addition or deletion.

Results are built by the same code path as the batch CLI
(:func:`repro.analysis.reports.json_document`,
:func:`repro.analysis.sarif.render_sarif`), merged in page order, so an
``analyze`` response is byte-identical to a cold ``sqlciv --json`` /
``--sarif`` run over the same tree.

Multi-tenancy: several projects can be resident at once.  The root on
the command line is the *default* project; ``load_project`` adds more,
``unload_project`` evicts them, and ``analyze`` / ``fix`` /
``invalidate`` take an optional ``project`` name.  Each project owns
its memo, parse cache, dependency graph, and invalidation **epoch** in
a :class:`ProjectState` behind its own lock, so an edit to one project
can never invalidate (or leak into) another; process-global shared
state — the verdict memo and the FST-image memo, in the daemon and in
every farm worker — is content-addressed, so cross-project sharing is
sound by construction (see DESIGN §5k).

Concurrency: connections are handled in threads.  Requests against
different projects interleave freely (per-project locks); the actual
analysis batches serialize on one analysis lock and — when the daemon
runs with ``--jobs N > 1`` — share a single persistent
:class:`~repro.farm.driver.AnalysisFarm`, so every resident project is
served by the same warm worker pool.  A request that arrives while an
equivalent batch is running simply replays the then-fresh memo.

Staleness contract: the daemon trusts ``invalidate`` notifications.
Edits it was never told about are *not* picked up for memoized pages
(they are picked up for re-queued pages, which re-read the tree), and
files added or deleted without one reach the entry pages and include
resolution only at the next layout rebuild; run
with ``--cache-dir`` if you also want the conservative whole-project
hash as a second line of defense for cross-restart reuse.
"""

from __future__ import annotations

import argparse
import bisect
import json
import logging
import os
import re
import socketserver
import sys
import threading
import time
from pathlib import Path

from repro.obs.metrics import PERF
from repro.analysis.analyzer import PageResult, entry_pages, run_pages
from repro.analysis.diskcache import RESOLVER_EXTENSIONS
from repro.analysis.policies.config import DEFAULT_CONFIG, PolicyConfig
from repro.analysis.reports import UNSOUND_CAVEATS, json_document
from repro.analysis.sarif import render_sarif
from repro.php.includes import IncludeResolver

from . import protocol
from .depgraph import DependencyGraph

log = logging.getLogger(__name__)

DEPGRAPH_FILENAME = "depgraph.json"

#: Project names become cache-directory components
#: (``<cache-dir>/projects/<name>``), so they must be single flat path
#: segments: no separators, no ``..``, nothing a tenant could use to
#: escape its namespace or collide with another tenant's.
_PROJECT_NAME_RE = re.compile(r"[A-Za-z0-9._-]+")


def _project_name(root: str | Path) -> str:
    """A default project name: the root directory's basename."""
    return Path(os.path.abspath(root)).name or "project"


def _validate_project_name(name: str) -> None:
    if not _PROJECT_NAME_RE.fullmatch(name) or set(name) <= {"."}:
        raise protocol.ProtocolError(
            protocol.INVALID_PARAMS,
            f"invalid project name {name!r}: must be a [A-Za-z0-9._-]+ "
            "slug (no path separators, not '.' or '..')",
        )


class ProjectLayout:
    """A project's file layout as of its last addition or deletion: one
    :class:`IncludeResolver` (sorted file list, per-directory name
    tables) and the entry pages from one :func:`entry_pages` scan.

    A content edit leaves both valid except for the edited file's own
    entry-page status (an ``if (!defined(...))`` guard can come or go),
    which :meth:`recheck_page` re-derives (DESIGN §5e)."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.resolver = IncludeResolver(root)
        self.pages = entry_pages(root)

    def recheck_page(self, rel: str) -> None:
        """Add or drop the edited ``.php`` file ``rel`` from the entry
        pages, keeping the scan's sorted order."""
        path = self.root / rel
        index = bisect.bisect_left(self.pages, path)
        present = index < len(self.pages) and self.pages[index] == path
        if entry_pages(self.root, [path]):
            if not present:
                self.pages.insert(index, path)
        elif present:
            del self.pages[index]


class ProjectState:
    """Everything the daemon keeps resident for one project: the
    per-page result memo, the shared parse cache, the dependency graph,
    the resident layout, and the invalidation **epoch** — a counter
    bumped on every ``invalidate`` so farm workers rebuild their
    per-project environments (resolver, parse cache, file census)
    instead of serving stale ones.  Guarded by its own re-entrant lock,
    so requests against different projects never contend."""

    def __init__(
        self, name: str, root: str | Path, cache_dir: str | Path | None = None
    ) -> None:
        self.name = name
        self.root = Path(root)
        if not self.root.is_dir():
            raise NotADirectoryError(f"{self.root} is not a directory")
        self._abs_root = Path(os.path.abspath(self.root))
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.lock = threading.RLock()
        self.loaded = time.time()
        self.epoch = 0
        #: (relative page, audit flag) → memoized PageResult
        self.memo: dict[tuple[str, bool], PageResult] = {}
        #: absolute path → (tree, error); shared with run_pages on the
        #: serial path, evicted per-file on invalidate
        self.parse_cache: dict = {}
        self.depgraph = DependencyGraph()
        #: built by the first analyze, dropped on any addition or deletion
        self.layout: ProjectLayout | None = None
        self.layout_builds = 0
        #: the resolver-visible files as notified: the first layout's
        #: scan, then plus every addition and minus every deletion that
        #: ``invalidate`` reports.  Never re-read from disk, so a file a
        #: rebuilt layout found before its addition was notified still
        #: counts as an addition when the notification comes (§5e)
        self.listed: set[str] | None = None
        if self.cache_dir is not None:
            persisted = DependencyGraph.load(
                self.cache_dir / DEPGRAPH_FILENAME, root=str(self.root)
            )
            if persisted is not None:
                self.depgraph = persisted
                log.info(
                    "%s: loaded persisted dependency graph: "
                    "%d pages, %d files",
                    name, len(persisted.pages()), len(persisted.files()),
                )

    # -- path helpers ------------------------------------------------------

    def rel(self, path: str | Path) -> str:
        try:
            return Path(path).relative_to(self.root).as_posix()
        except ValueError:
            return Path(path).as_posix()

    def normalize(self, raw: str) -> str | None:
        """Project-relative POSIX form of a client-supplied path, or
        None when it is outside the project root (``..`` components are
        collapsed first, so traversal can't sneak back in)."""
        candidate = Path(raw)
        if not candidate.is_absolute():
            candidate = self._abs_root / candidate
        normalized = Path(os.path.normpath(str(candidate)))
        try:
            return normalized.relative_to(self._abs_root).as_posix()
        except ValueError:
            return None

    def current_layout(self) -> ProjectLayout:
        if self.layout is None:
            self.layout = ProjectLayout(self.root)
            self.layout_builds += 1
            PERF.incr("server.layout.builds")
            if self.listed is None:
                self.listed = {
                    self.rel(path)
                    for path in self.layout.resolver.project_files()
                }
        return self.layout

    def persist_depgraph(self) -> None:
        if self.cache_dir is None:
            return
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
            self.depgraph.save(
                self.cache_dir / DEPGRAPH_FILENAME, root=str(self.root)
            )
        except OSError as exc:
            log.warning(
                "%s: could not persist dependency graph: %s", self.name, exc
            )

    def summary(self) -> dict:
        return {
            "name": self.name,
            "root": str(self.root),
            "epoch": self.epoch,
            "memoized_pages": len({rel for rel, _audit in self.memo}),
            "depgraph_pages": len(self.depgraph.pages()),
            "layout_builds": self.layout_builds,
            "loaded_seconds_ago": round(time.time() - self.loaded, 3),
        }


class AnalysisDaemon:
    """Protocol dispatcher + incremental analysis state (socket-free, so
    tests can drive it in-process and the socket layer stays thin)."""

    def __init__(
        self,
        project_root: str | Path,
        jobs: int | None = 1,
        cache_dir: str | Path | None = None,
        cache_max_mb: float | None = None,
        policies: PolicyConfig = DEFAULT_CONFIG,
    ) -> None:
        self.jobs = jobs if jobs and jobs >= 1 else 1
        self.cache_dir = Path(cache_dir) if cache_dir else None
        self.cache_max_mb = cache_max_mb
        #: the PolicyConfig, fixed for the daemon's lifetime, so the
        #: (page, audit) memo key needs no policy component — the config
        #: digest still keys the on-disk cache through run_pages
        self.policies = policies
        self.started = time.time()
        self.stopping = False
        #: project name → ProjectState; guarded by the registry lock
        #: (held only for dict lookups/mutations, never across analysis)
        self.projects: dict[str, ProjectState] = {}
        self._projects_lock = threading.RLock()
        #: analysis batches serialize here — the farm's workers are a
        #: shared resource, and run_pages' process-global memos are not
        #: re-entrant from concurrent threads.  Lock order is always
        #: project.lock → _analysis_lock, never the reverse.
        self._analysis_lock = threading.RLock()
        #: shared persistent worker pool (created lazily on the first
        #: parallel batch; every resident project analyzes through it)
        self._farm = None
        default = ProjectState(
            _project_name(project_root), project_root, cache_dir=self.cache_dir
        )
        self.projects[default.name] = default
        self.default_name = default.name
        # back-compat: the default project's root, as `status` reports it
        self.root = default.root

    # -- project registry --------------------------------------------------

    def _project(self, params: dict) -> ProjectState:
        """The project a request addresses (``project`` param, else the
        default project the daemon was started on)."""
        name = params.get("project")
        with self._projects_lock:
            if name is None:
                return self.projects[self.default_name]
            try:
                return self.projects[name]
            except KeyError:
                raise protocol.ProtocolError(
                    protocol.INVALID_PARAMS,
                    f"no loaded project named {name!r} "
                    f"(loaded: {sorted(self.projects)}); "
                    "load it first with load_project",
                )

    def _farm_for_batch(self):
        """The shared farm when the daemon runs parallel batches; None
        keeps run_pages on the serial in-process path.  A farm that lost
        a worker (killed, out of memory) is replaced, so one dead process
        fails at most the batch it died in."""
        if self.jobs <= 1:
            return None
        if self._farm is not None and not self._farm.healthy():
            log.warning("analysis farm lost a worker; restarting it")
            PERF.incr("server.farm.restarts")
            self._farm.shutdown()
            self._farm = None
        if self._farm is None:
            from repro.farm.driver import AnalysisFarm

            self._farm = AnalysisFarm(self.jobs)
            log.info("analysis farm started: %d workers", self.jobs)
        return self._farm

    # -- dispatch ----------------------------------------------------------

    def dispatch_line(self, line: bytes | str) -> tuple[dict, bool]:
        """One request line → (response object, stop-serving flag)."""
        try:
            request = protocol.parse_request(line)
        except protocol.ProtocolError as exc:
            PERF.incr("server.requests.malformed")
            return (
                protocol.error_response(exc.request_id, exc.code, str(exc)),
                False,
            )
        request_id, op, params = request["id"], request["op"], request["params"]
        PERF.incr(f"server.requests.{op}")
        handler = getattr(self, f"op_{op}")
        # no global lock here: each op takes the locks it needs (its
        # project's lock, the registry lock, the analysis lock), so
        # clients of different projects are served concurrently
        with PERF.latency("server.request_seconds"):
            try:
                result = handler(params)
            except protocol.ProtocolError as exc:
                return (
                    protocol.error_response(request_id, exc.code, str(exc)),
                    False,
                )
            except Exception as exc:  # never let a bug kill the daemon
                log.exception("op %s failed", op)
                PERF.incr("server.requests.internal_error")
                return (
                    protocol.error_response(
                        request_id,
                        protocol.INTERNAL_ERROR,
                        f"{type(exc).__name__}: {exc}",
                    ),
                    False,
                )
        return protocol.ok_response(request_id, result), op == "shutdown"

    # -- operations --------------------------------------------------------

    def op_analyze(self, params: dict) -> dict:
        project = self._project(params)
        audit = bool(params.get("audit", True))
        requested = params.get("pages")
        with project.lock, PERF.timer("server.analyze"):
            layout = project.current_layout()
            if requested is None:
                pages = layout.pages
            else:
                pages = []
                for raw in requested:
                    rel = project.normalize(raw)
                    if rel is None:
                        raise protocol.ProtocolError(
                            protocol.INVALID_PARAMS,
                            f"page {raw!r} is outside the project root",
                        )
                    page = project.root / rel
                    if not page.is_file():
                        raise protocol.ProtocolError(
                            protocol.INVALID_PARAMS,
                            f"page {raw!r} does not exist",
                        )
                    pages.append(page)
            keys = [(project.rel(page), audit) for page in pages]
            stale = [
                page for page, key in zip(pages, keys)
                if key not in project.memo
            ]
            if stale:
                with self._analysis_lock:
                    fresh = run_pages(
                        project.root,
                        stale,
                        audit=audit,
                        jobs=self.jobs,
                        cache_dir=project.cache_dir,
                        cache_max_mb=self.cache_max_mb,
                        parse_cache=project.parse_cache,
                        policies=self.policies,
                        farm=self._farm_for_batch(),
                        epoch=project.epoch,
                        resolver=layout.resolver,
                    )
                for result in fresh:
                    rel = project.rel(result.page)
                    project.memo[(rel, audit)] = result
                    project.depgraph.record(
                        rel, result.deps, result.layout_sensitive
                    )
                project.persist_depgraph()
            PERF.incr("server.pages.reanalyzed", len(stale))
            PERF.incr("server.pages.replayed", len(pages) - len(stale))
            results = [project.memo[key] for key in keys]
            document = json_document(project.root, results)
            response = {
                "document": document,
                "pages_total": len(pages),
                "pages_reanalyzed": len(stale),
                "pages_replayed": len(pages) - len(stale),
                "exit_code": self._exit_code(document, audit),
            }
            if params.get("sarif"):
                response["sarif"] = render_sarif(
                    project.root, results, policies=self.policies
                )
        return response

    @staticmethod
    def _exit_code(document: dict, audit: bool) -> int:
        """The batch CLI's exit-code contract, for clients to mirror."""
        if not document["verified"]:
            return 1
        if audit and document["confidence"] == UNSOUND_CAVEATS:
            return 3
        return 0

    def op_fix(self, params: dict) -> dict:
        """Run the remediation engine against the resident project.

        The engine reuses the daemon's parse cache for its pre-patch
        analysis; when ``apply`` wrote patches back, the patched files
        go through the standard ``invalidate`` path so the memo and
        depgraph see the new tree."""
        from repro.remediate import remediate_project

        project = self._project(params)
        requested = params.get("pages")
        pages = None
        if requested is not None:
            pages = []
            for raw in requested:
                rel = project.normalize(raw)
                if rel is None:
                    raise protocol.ProtocolError(
                        protocol.INVALID_PARAMS,
                        f"page {raw!r} is outside the project root",
                    )
                if not (project.root / rel).is_file():
                    raise protocol.ProtocolError(
                        protocol.INVALID_PARAMS,
                        f"page {raw!r} does not exist",
                    )
                pages.append(rel)
        with project.lock, PERF.timer("server.fix"):
            with self._analysis_lock:
                report = remediate_project(
                    project.root,
                    pages=pages,
                    policies=self.policies,
                    apply=bool(params.get("apply", False)),
                    parse_cache=project.parse_cache,
                    oracle=bool(params.get("oracle", True)),
                )
            result = report.as_dict()
            if report.applied:
                patched = sorted({patch.file for patch in report.patches})
                result["invalidated"] = self.op_invalidate(
                    {"paths": patched, "project": project.name}
                )
        return result

    def op_invalidate(self, params: dict) -> dict:
        project = self._project(params)
        changed: list[str] = []
        added: list[str] = []
        deleted: list[str] = []
        ignored: list[str] = []
        with project.lock:
            listed = project.listed
            for raw in params["paths"]:
                rel = project.normalize(raw)
                if rel is None:
                    log.info(
                        "invalidate: %s is outside the project root — "
                        "ignored", raw
                    )
                    ignored.append(raw)
                    continue
                if not rel.endswith(RESOLVER_EXTENSIONS):
                    log.info(
                        "invalidate: %s is not resolver-visible — ignored",
                        raw,
                    )
                    ignored.append(raw)
                    continue
                if not (project.root / rel).exists():
                    deleted.append(rel)
                elif (
                    rel in listed if listed is not None
                    else project.depgraph.knows_file(rel)
                ):
                    changed.append(rel)
                else:
                    # exists but was never listed (or, before the first
                    # analyze, never recorded): an addition, which may
                    # re-route include-name resolution
                    added.append(rel)
            affected = project.depgraph.affected_by(
                changed=changed, added=added, deleted=deleted
            )
            for rel in affected:
                project.memo.pop((rel, True), None)
                project.memo.pop((rel, False), None)
            for rel in deleted:
                # a deleted entry page can't be re-analyzed; drop it
                if project.depgraph.has_page(rel):
                    project.depgraph.forget(rel)
                    project.memo.pop((rel, True), None)
                    project.memo.pop((rel, False), None)
            for rel in changed + added + deleted:
                project.parse_cache.pop(project.root / rel, None)
            if listed is not None:
                listed.difference_update(deleted)
                listed.update(added)
            if added or deleted:
                project.layout = None
            elif project.layout is not None:
                for rel in changed:
                    if rel.endswith(".php"):
                        project.layout.recheck_page(rel)
            if changed or added or deleted:
                # farm workers key their per-project environments by
                # (root, epoch); bumping forces a rebuild, so only THIS
                # project's workers' state is refreshed — other resident
                # projects keep their epochs and their environments
                project.epoch += 1
        PERF.incr("server.pages.invalidated", len(affected))
        if affected:
            log.info(
                "invalidate %s: %d changed, %d added, %d deleted → "
                "%d page(s) re-queued", project.name, len(changed),
                len(added), len(deleted), len(affected),
            )
        return {
            "invalidated_pages": sorted(affected),
            "changed": sorted(changed),
            "added": sorted(added),
            "deleted": sorted(deleted),
            "ignored": ignored,
        }

    # -- project management ops --------------------------------------------

    def op_load_project(self, params: dict) -> dict:
        """Make another project resident: ``{"root": DIR, "name": ...}``.

        The new project gets its own memo, parse cache, depgraph, and
        epoch; when the daemon has a cache dir, the project's on-disk
        state lives under ``<cache-dir>/projects/<name>/`` so depgraphs
        and page caches never collide across tenants."""
        root = params["root"]
        name = params.get("name") or _project_name(root)
        _validate_project_name(name)
        cache_dir = (
            self.cache_dir / "projects" / name
            if self.cache_dir is not None else None
        )
        with self._projects_lock:
            existing = self.projects.get(name)
            if existing is not None:
                if Path(os.path.abspath(existing.root)) == Path(
                    os.path.abspath(root)
                ):
                    return {"loaded": False, "project": existing.summary()}
                raise protocol.ProtocolError(
                    protocol.INVALID_PARAMS,
                    f"project name {name!r} is already loaded for "
                    f"{existing.root}; pass a distinct \"name\"",
                )
            try:
                project = ProjectState(name, root, cache_dir=cache_dir)
            except NotADirectoryError as exc:
                raise protocol.ProtocolError(
                    protocol.INVALID_PARAMS, str(exc)
                )
            self.projects[name] = project
        log.info("loaded project %s (%s)", name, project.root)
        PERF.incr("server.projects.loaded")
        return {"loaded": True, "project": project.summary()}

    def op_unload_project(self, params: dict) -> dict:
        name = params["name"]
        with self._projects_lock:
            if name == self.default_name:
                raise protocol.ProtocolError(
                    protocol.INVALID_PARAMS,
                    f"{name!r} is the daemon's default project and cannot "
                    "be unloaded",
                )
            project = self.projects.get(name)
            if project is None:
                raise protocol.ProtocolError(
                    protocol.INVALID_PARAMS,
                    f"no loaded project named {name!r}",
                )
            del self.projects[name]
        # take the project's lock once to let any in-flight request on
        # it drain before its state is dropped
        with project.lock:
            project.persist_depgraph()
        log.info("unloaded project %s (%s)", name, project.root)
        PERF.incr("server.projects.unloaded")
        return {"unloaded": True, "name": name}

    def op_projects(self, params: dict) -> dict:
        with self._projects_lock:
            summaries = [
                self.projects[name].summary()
                for name in sorted(self.projects)
            ]
        return {"default": self.default_name, "projects": summaries}

    # -- metrics / status --------------------------------------------------

    def _resident_gauges(self) -> dict[str, float]:
        """Current-value gauges for the metrics surface (the registry's
        own gauges are high-water marks, so point-in-time occupancy is
        sampled here).  Page/file totals aggregate over every resident
        project."""
        from repro.analysis.policy import VERDICT_CACHE
        from repro.lang.image import IMAGE_CACHE

        with self._projects_lock:
            projects = list(self.projects.values())
        return {
            "resident.projects": len(projects),
            "resident.pages": sum(
                len({rel for rel, _audit in p.memo}) for p in projects
            ),
            "server.uptime_seconds": round(time.time() - self.started, 3),
            "server.parse_cache_entries": sum(
                len(p.parse_cache) for p in projects
            ),
            "server.depgraph_pages": sum(
                len(p.depgraph.pages()) for p in projects
            ),
            "server.depgraph_files": sum(
                len(p.depgraph.files()) for p in projects
            ),
            "image.cache.entries": len(IMAGE_CACHE),
            "policy.verdict_cache.entries": len(VERDICT_CACHE),
        }

    def _cache_hit_rates(self) -> dict[str, float]:
        """Hit rates per cache since daemon start, from the counters."""
        from repro.obs.metrics import cache_rates

        return {
            label.replace(" ", "_"): round(rate, 4)
            for label, _hits, _misses, rate, _extras in cache_rates(
                PERF.snapshot()["counters"]
            )
        }

    def op_status(self, params: dict) -> dict:
        # top-level fields describe the default project (the one the
        # daemon was started on) for backwards compatibility; the
        # "projects" list covers every resident tenant
        with self._projects_lock:
            default = self.projects[self.default_name]
            summaries = [
                self.projects[name].summary()
                for name in sorted(self.projects)
            ]
        memoized = {rel for rel, _audit in default.memo}
        return {
            "protocol": protocol.PROTOCOL_VERSION,
            "root": str(default.root),
            "pid": os.getpid(),
            "uptime_seconds": round(time.time() - self.started, 3),
            "jobs": self.jobs,
            "cache_dir": str(self.cache_dir) if self.cache_dir else None,
            "memoized_pages": len(memoized),
            "layout_builds": default.layout_builds,
            "parse_cache_entries": len(default.parse_cache),
            "depgraph": {
                "pages": len(default.depgraph.pages()),
                "files": len(default.depgraph.files()),
                "layout_sensitive_pages": len(
                    default.depgraph.layout_sensitive_pages()
                ),
            },
            "projects": summaries,
            "resident": self._resident_gauges(),
            "cache_hit_rates": self._cache_hit_rates(),
        }

    def prometheus_text(self) -> str:
        """The Prometheus exposition for this daemon (served both by the
        ``metrics`` op with ``format="prometheus"`` and by the HTTP
        ``--metrics-addr`` endpoint)."""
        from repro.obs.prometheus import render_prometheus

        return render_prometheus(
            PERF.snapshot(), extra_gauges=self._resident_gauges()
        )

    def op_metrics(self, params: dict) -> dict:
        if params.get("format") == "prometheus":
            return {
                "content_type": "text/plain; version=0.0.4; charset=utf-8",
                "text": self.prometheus_text(),
            }
        return {
            "uptime_seconds": round(time.time() - self.started, 3),
            "perf": PERF.snapshot(),
            "resident": self._resident_gauges(),
            "cache_hit_rates": self._cache_hit_rates(),
        }

    def op_ping(self, params: dict) -> dict:
        return {"pong": True, "protocol": protocol.PROTOCOL_VERSION}

    def op_shutdown(self, params: dict) -> dict:
        self.stopping = True
        self.close()
        log.info("shutdown requested")
        return {"stopping": True}

    def close(self) -> None:
        """Persist every project's depgraph and stop the shared farm."""
        with self._projects_lock:
            projects = list(self.projects.values())
        for project in projects:
            with project.lock:
                project.persist_depgraph()
        # the analysis lock lets any in-flight batch drain before its
        # workers are torn down, and synchronizes _farm against
        # _farm_for_batch (which runs under the same lock)
        with self._analysis_lock:
            if self._farm is not None:
                self._farm.shutdown()
                self._farm = None


# -- Prometheus scrape endpoint ----------------------------------------------


def start_metrics_server(daemon: AnalysisDaemon, addr: str):
    """Serve ``GET /metrics`` (Prometheus text format) on ``addr``.

    ``addr`` is ``HOST:PORT`` (``:0`` / bare ``PORT`` bind an ephemeral
    port on 127.0.0.1 — the bound address is reported in the daemon's
    ready line).  Returns the running ``ThreadingHTTPServer``; the
    serving thread is a daemon thread, so it never blocks shutdown.
    """
    from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

    host, _, port_text = addr.rpartition(":")
    host = host or "127.0.0.1"
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"--metrics-addr: invalid port in {addr!r}")

    class _MetricsHandler(BaseHTTPRequestHandler):
        def do_GET(self) -> None:  # noqa: N802 (http.server API)
            if self.path.split("?", 1)[0] not in ("/metrics", "/"):
                self.send_error(404, "only /metrics is served here")
                return
            body = daemon.prometheus_text().encode("utf-8")
            self.send_response(200)
            self.send_header(
                "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
            )
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, format: str, *args) -> None:
            log.debug("metrics endpoint: " + format, *args)

    httpd = ThreadingHTTPServer((host, port), _MetricsHandler)
    thread = threading.Thread(
        target=httpd.serve_forever,
        kwargs={"poll_interval": 0.1},
        name="sqlciv-metrics",
        daemon=True,
    )
    thread.start()
    return httpd


# -- socket layer -------------------------------------------------------------


class _RequestHandler(socketserver.StreamRequestHandler):
    def handle(self) -> None:
        daemon: AnalysisDaemon = self.server.daemon  # type: ignore[attr-defined]
        while True:
            try:
                line = self.rfile.readline(protocol.MAX_LINE_BYTES)
            except OSError:
                break
            if not line:
                break
            if not line.strip():
                continue
            if len(line) >= protocol.MAX_LINE_BYTES and not line.endswith(b"\n"):
                response, stop = (
                    protocol.error_response(
                        None, protocol.REQUEST_TOO_LARGE,
                        f"request exceeds {protocol.MAX_LINE_BYTES} bytes",
                    ),
                    True,  # the stream is desynchronized; drop the client
                )
            else:
                response, stop = daemon.dispatch_line(line)
            try:
                self.wfile.write(protocol.encode(response))
                self.wfile.flush()
            except OSError:
                break
            if stop:
                if daemon.stopping:
                    # shutdown() blocks until serve_forever() returns, so
                    # it must run outside this handler thread's accept loop
                    threading.Thread(
                        target=self.server.shutdown, daemon=True
                    ).start()
                break


class _ThreadingTCPServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


if hasattr(socketserver, "ThreadingUnixStreamServer"):

    class _ThreadingUnixServer(socketserver.ThreadingUnixStreamServer):
        daemon_threads = True

else:  # non-Unix platforms: TCP only
    _ThreadingUnixServer = None  # type: ignore[assignment]


def create_server(
    daemon: AnalysisDaemon,
    socket_path: str | Path | None = None,
    host: str = "127.0.0.1",
    port: int | None = None,
):
    """A ready-to-``serve_forever`` socket server bound to either a Unix
    socket (``socket_path``) or TCP ``host:port`` (port 0 = ephemeral)."""
    if socket_path is not None:
        if _ThreadingUnixServer is None:
            raise OSError("unix sockets are not supported on this platform")
        socket_path = Path(socket_path)
        try:
            socket_path.unlink()
        except OSError:
            pass
        server = _ThreadingUnixServer(str(socket_path), _RequestHandler)
    else:
        server = _ThreadingTCPServer((host, port or 0), _RequestHandler)
    server.daemon = daemon  # type: ignore[attr-defined]
    return server


def serve_main(argv: list[str] | None = None) -> int:
    """The ``sqlciv serve`` entry point."""
    parser = argparse.ArgumentParser(
        prog="sqlciv serve",
        description=(
            "Run the persistent analysis daemon: keeps every memo warm "
            "across requests and re-analyzes only the pages an edit can "
            "affect (see README 'Server mode')."
        ),
    )
    parser.add_argument("root", help="project root directory to serve")
    parser.add_argument("--socket", metavar="PATH",
                        help="listen on a unix socket at PATH")
    parser.add_argument("--host", default="127.0.0.1",
                        help="TCP bind host (default: 127.0.0.1)")
    parser.add_argument("--port", type=int, metavar="N",
                        help="listen on TCP port N (0 = ephemeral)")
    parser.add_argument("--jobs", "-j", type=int, default=1, metavar="N",
                        help="run_pages worker count per analyze batch")
    parser.add_argument("--cache-dir", metavar="DIR",
                        help="on-disk AST/result cache (also persists the "
                             "dependency graph across restarts)")
    parser.add_argument("--cache-max-mb", type=float, metavar="MB",
                        help="cap the on-disk cache; least-recently-used "
                             "entries are pruned past the cap")
    parser.add_argument("--policy-config", metavar="FILE",
                        help="enable sink policies from a YAML config for "
                             "the daemon's lifetime (see README 'Policies')")
    parser.add_argument("--metrics-addr", metavar="HOST:PORT",
                        help="also serve GET /metrics (Prometheus text "
                             "format) over HTTP on HOST:PORT (':0' binds an "
                             "ephemeral port; the bound address appears in "
                             "the ready line as \"metrics\")")
    parser.add_argument("--log-level", choices=("quiet", "info", "debug"),
                        default="info")
    args = parser.parse_args(argv)
    if args.socket is None and args.port is None:
        parser.error("one of --socket or --port is required")

    policies = DEFAULT_CONFIG
    if args.policy_config:
        from repro.analysis.policies import PolicyConfigError, load_policy_config

        try:
            policies = load_policy_config(args.policy_config)
        except PolicyConfigError as exc:
            parser.error(f"--policy-config: {exc}")

    logging.basicConfig(
        stream=sys.stderr,
        level={"quiet": logging.ERROR, "info": logging.INFO,
               "debug": logging.DEBUG}[args.log_level],
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        daemon = AnalysisDaemon(
            args.root,
            jobs=args.jobs,
            cache_dir=args.cache_dir,
            cache_max_mb=args.cache_max_mb,
            policies=policies,
        )
    except NotADirectoryError as exc:
        parser.error(str(exc))
    server = create_server(
        daemon, socket_path=args.socket, host=args.host, port=args.port
    )
    metrics_server = None
    if args.metrics_addr:
        try:
            metrics_server = start_metrics_server(daemon, args.metrics_addr)
        except (OSError, ValueError) as exc:
            server.server_close()
            parser.error(f"--metrics-addr: {exc}")
    if args.socket is not None:
        address = args.socket
    else:
        address = "%s:%d" % server.server_address[:2]
    ready = {"listening": address, "pid": os.getpid()}
    if metrics_server is not None:
        ready["metrics"] = "%s:%d" % metrics_server.server_address[:2]
        log.info("metrics endpoint on http://%s/metrics", ready["metrics"])
    # the ready line scripts wait for (stdout, flushed, machine-readable)
    print(json.dumps(ready), flush=True)
    log.info("sqlciv daemon serving %s on %s", daemon.root, address)
    try:
        server.serve_forever(poll_interval=0.1)
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
        daemon.close()
        if metrics_server is not None:
            metrics_server.shutdown()
            metrics_server.server_close()
        if args.socket is not None:
            try:
                Path(args.socket).unlink()
            except OSError:
                pass
    log.info("sqlciv daemon stopped")
    return 0


if __name__ == "__main__":
    raise SystemExit(serve_main())
