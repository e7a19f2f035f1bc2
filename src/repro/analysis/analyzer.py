"""The top-level driver: PHP files in, bug reports (or "verified") out.

Mirrors the paper's Figure 3 workflow: per entry page, run the
string-taint analysis (phase 1), then the policy-conformance checks
(phase 2), and aggregate into a :class:`ProjectReport` with the same
shape as a Table 1 row.  With ``audit=True`` each page additionally
runs the soundness audit (:mod:`repro.analysis.audit`): every hotspot
verdict is stamped with a confidence level and the report carries the
deduplicated diagnostics for unmodeled or widened constructs.

Pages are independent ``main``\\ s (paper §5.3), which makes the driver
embarrassingly parallel: :func:`run_pages` fans pages out to the
analysis farm (:mod:`repro.farm` — persistent work-stealing workers)
when ``jobs > 1`` and merges the per-page :class:`PageResult` records back
**in page order**, so the aggregate report is deterministic —
byte-identical to a serial run — regardless of worker scheduling.
``jobs=1`` keeps the exact single-process path (shared parse cache and
include resolver across pages).  An optional on-disk cache
(:mod:`repro.analysis.diskcache`) makes repeat runs over an unchanged
corpus near-instant.
"""

from __future__ import annotations

import os
import re
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs.timeline import TIMELINE
from repro.obs.metrics import PERF
from repro.php.includes import IncludeResolver

from .audit import AuditReport, AuditTrail, audit_page
from .diskcache import DiskCache, project_state_hash
from .policy import check_hotspot
from .reports import HotspotReport, ProjectReport
from .stringtaint import StringTaintAnalysis


def _check_spot(grammar, spot, policies) -> HotspotReport:
    """Phase-2 dispatch: SQL hotspots keep the classic cascade path
    (byte-identical output); policy-recorded hotspots go through their
    owning :class:`~repro.analysis.policies.SinkPolicy`."""
    kind = getattr(spot, "kind", "sql")
    if policies is None or kind == "sql":
        return check_hotspot(grammar, spot)
    return policies.policy_for(kind).check(grammar, spot)


def analyze_page(
    project_root: str | Path, entry: str | Path, audit: AuditTrail | None = None
) -> tuple[list[HotspotReport], StringTaintAnalysis]:
    """Analyze one top-level page; returns its hotspot reports."""
    analysis = StringTaintAnalysis(project_root, audit=audit)
    result = analysis.analyze_file(entry)
    reports = [check_hotspot(result.grammar, spot) for spot in result.hotspots]
    return reports, analysis


def audit_entry(project_root: str | Path, entry: str | Path):
    """Analyze one page with the soundness audit attached.

    Returns ``(hotspot_reports, analysis_result, audit_report)``; every
    hotspot report is stamped with the page's confidence level.
    """
    trail = AuditTrail()
    analysis = StringTaintAnalysis(project_root, audit=trail)
    result = analysis.analyze_file(entry)
    reports = [check_hotspot(result.grammar, spot) for spot in result.hotspots]
    page_audit = audit_page(result)
    for report in reports:
        report.confidence = page_audit.confidence
    return reports, result, page_audit


_PHP_OPEN = re.compile(r"<\?(?:php\b|=)?")
_DEFINED_GUARD = re.compile(r"if\s*\(\s*!\s*defined\s*\(", re.IGNORECASE)


def _leading_code(text: str) -> str:
    """The first PHP code in ``text``, past the open tag, whitespace and
    comments (``//``, ``#``, ``/* */``)."""
    match = _PHP_OPEN.search(text)
    if match is None:
        return ""
    code = text[match.end() :]
    while True:
        code = code.lstrip()
        if code.startswith("//") or code.startswith("#"):
            newline = code.find("\n")
            if newline == -1:
                return ""
            code = code[newline + 1 :]
        elif code.startswith("/*"):
            end = code.find("*/")
            if end == -1:
                return ""
            code = code[end + 2 :]
        else:
            return code


def has_include_guard(path: Path) -> bool:
    """True if the file opens with an ``if (!defined(...))`` guard — the
    classic marker of an include-only library file (it dies unless some
    constant was defined by the including page)."""
    try:
        head = path.read_text(errors="replace")[:4096]
    except OSError:
        return False
    return bool(_DEFINED_GUARD.match(_leading_code(head)))


def entry_pages(
    project_root: str | Path, php_files: list[Path] | None = None
) -> list[Path]:
    """Top-level pages of a web application: the .php files that are not
    obviously include-only libraries.

    Each page is a separate ``main`` (paper §5.3); library files are
    analyzed as they are included.  The heuristic — include-only files
    live in ``includes/``/``lib/``-style directories or start with an
    ``if (!defined(...))`` guard — matches how the corpus (and the real
    applications it mirrors) is laid out.

    ``php_files`` lets the caller share one directory scan between the
    file census and the page listing (:func:`analyze_project` passes its
    own ``rglob`` result instead of walking the tree twice).
    """
    root = Path(project_root)
    if php_files is None:
        php_files = sorted(root.rglob("*.php"))
    pages = []
    for path in php_files:
        rel = path.relative_to(root)
        library_markers = (
            "includes", "include", "lib", "libs", "languages", "handlers",
            "cache", "templates",
        )
        if any(
            marker in part
            for part in rel.parts[:-1]
            for marker in library_markers
        ):
            continue
        if has_include_guard(path):
            continue
        pages.append(path)
    return pages


@dataclass
class PageResult:
    """Everything one page's analysis produces, in picklable form.

    This is the unit shipped back from parallel workers and stored in the
    on-disk page cache, so it must stay free of live analysis state
    (grammars, ASTs, environments).
    """

    page: str
    reports: list[HotspotReport] = field(default_factory=list)
    parse_errors: list[str] = field(default_factory=list)
    audit: AuditReport | None = None
    #: grammar-size tallies over the page's hotspot subgrammars
    nonterminals: int = 0
    productions: int = 0
    string_seconds: float = 0.0
    check_seconds: float = 0.0
    #: True when served from the on-disk page cache (timings are the
    #: original run's, not this run's)
    from_cache: bool = False
    #: worker-side perf delta (parallel runs only; folded into the
    #: driver's recorder and cleared by :func:`run_pages`)
    perf: dict | None = None
    #: this page's span capture (``--profile=timeline`` / ``--trace``):
    #: the :meth:`repro.obs.timeline._PageCapture.payload` dict, tagged
    #: with the recording process id so the driver can assign worker
    #: lanes; recorded wherever the page actually ran and reassembled by
    #: the driver in page order, so a parallel run's views match a
    #: serial run's.  ``None`` when recording is off
    timeline: dict | None = None
    #: the page's file-dependency closure, as sorted project-relative
    #: POSIX paths: every file whose *content* can influence this page's
    #: grammar (entry page + transitive include closure, parse failures
    #: and include-once-skipped alternatives included).  Persisted with
    #: the result so the analysis server can rebuild its dependency
    #: graph from cached entries (:mod:`repro.server.depgraph`)
    deps: list[str] = field(default_factory=list)
    #: True when the page's verdicts also depend on the project *layout*
    #: (a dynamic or unresolved include): file additions/removals must
    #: invalidate it even when no file in ``deps`` changed
    layout_sensitive: bool = False

    @property
    def verified(self) -> bool:
        return all(report.verified for report in self.reports)


def _relative_deps(dep_files, project_root: Path) -> list[str]:
    """Sorted project-relative POSIX form of a page's dependency closure
    (paths outside the root — possible with symlinked includes — stay
    absolute so they still compare equal across runs)."""
    rels = set()
    for dep in dep_files:
        path = Path(dep)
        try:
            rels.add(path.relative_to(project_root).as_posix())
        except ValueError:
            rels.add(path.as_posix())
    return sorted(rels)


def _analyze_one_page(
    project_root: Path,
    page: str | Path,
    audit: bool,
    parse_cache: dict,
    resolver: IncludeResolver,
    disk_cache: DiskCache | None,
    policies=None,
) -> PageResult:
    """The two-phase analysis of a single entry page."""
    started = time.perf_counter()
    trail = AuditTrail() if audit else None
    analysis = StringTaintAnalysis(
        project_root,
        parse_cache=parse_cache,
        resolver=resolver,
        audit=trail,
        disk_cache=disk_cache,
        policies=policies,
    )
    with PERF.timer("phase1.string_analysis"), TIMELINE.phase("absdom"):
        result = analysis.analyze_file(page)
        TIMELINE.annotate("hotspots", len(result.hotspots))
        TIMELINE.annotate(
            "grammar_nonterminals", len(result.grammar.productions)
        )
        TIMELINE.annotate(
            "grammar_productions", result.grammar.num_productions()
        )
    PERF.incr("pages.analyzed")
    string_seconds = time.perf_counter() - started

    started = time.perf_counter()
    reports: list[HotspotReport] = []
    nonterminals = 0
    productions = 0
    with PERF.timer("phase2.checks"), TIMELINE.phase(
        "phase2", hotspots=len(result.hotspots)
    ):
        for spot in result.hotspots:
            scope = result.grammar.subgrammar(spot.query.nt)
            nonterminals += len(scope.productions)
            scope_productions = scope.num_productions()
            productions += scope_productions
            PERF.gauge("grammar.hotspot_productions.max", scope_productions)
            reports.append(_check_spot(result.grammar, spot, policies))
    check_seconds = time.perf_counter() - started

    page_audit = None
    if audit:
        with TIMELINE.phase("audit"):
            page_audit = audit_page(result)
        # a hotspot's verdict is only as trustworthy as the weakest
        # construct on its page's include closure
        for report in reports:
            report.confidence = page_audit.confidence
    return PageResult(
        page=str(page),
        reports=reports,
        parse_errors=list(result.parse_errors),
        audit=page_audit,
        nonterminals=nonterminals,
        productions=productions,
        string_seconds=string_seconds,
        check_seconds=check_seconds,
        deps=_relative_deps(result.dep_files, Path(project_root)),
        layout_sensitive=result.layout_sensitive,
    )


def _page_result(
    project_root: Path,
    page: str | Path,
    audit: bool,
    parse_cache: dict,
    resolver: IncludeResolver | None,
    disk_cache: DiskCache | None,
    project_state: str | None,
    policies=None,
) -> PageResult:
    """One page, consulting the on-disk page cache when available.

    Always the page-capture boundary: this page's spans are recorded
    here (a fresh capture whether the result was analyzed or served from
    disk) and shipped in ``PageResult.timeline``."""
    with TIMELINE.page(str(page)) as capture:
        result = _page_result_inner(
            project_root, page, audit, parse_cache, resolver, disk_cache,
            project_state, capture, policies,
        )
    result.timeline = capture.payload()
    return result


def _page_result_inner(
    project_root: Path,
    page: str | Path,
    audit: bool,
    parse_cache: dict,
    resolver: IncludeResolver | None,
    disk_cache: DiskCache | None,
    project_state: str | None,
    capture,
    policies=None,
) -> PageResult:
    key = None
    if disk_cache is not None and project_state is not None:
        try:
            rel = str(Path(page).relative_to(project_root))
        except ValueError:
            rel = str(page)
        key = DiskCache.page_key(
            project_state,
            str(project_root),
            rel,
            audit,
            policy_digest=policies.digest() if policies is not None else "",
        )
        with TIMELINE.phase("cache.page_load"):
            cached = disk_cache.load("page", key)
        if isinstance(cached, PageResult):
            # every hotspot whose cascade we skipped is phase-2 work
            # the cache paid for once and amortizes forever
            PERF.incr("policy.checks_avoided", len(cached.reports))
            PERF.incr("pages.from_disk_cache")
            cached.from_cache = True
            cached.perf = None
            capture.set("from_cache", True)
            return cached
    if resolver is None:
        resolver = IncludeResolver(project_root)
    result = _analyze_one_page(
        project_root, page, audit, parse_cache, resolver, disk_cache,
        policies=policies,
    )
    if disk_cache is not None and key is not None:
        disk_cache.store("page", key, result)
    return result


# -- parallel workers ---------------------------------------------------------


def _warm_worker_caches(policies) -> None:
    """Pre-build the policy automata a worker will need (warm start).

    Without this, the first page each worker analyzes pays the cold
    NFA→determinize→minimize cost for every danger automaton — once per
    worker process, since none of the ``lru_cache`` tables travel across
    ``fork``/``spawn``.  All constructors are process-cached, so warming
    is idempotent and costs nothing when the caches are already hot."""
    from . import quotes
    from .policies import policy_instance

    with PERF.timer("worker.warm_start"):
        # the SQL confinement cascade (the default when no policy config
        # is given) draws on the quotes automata
        quotes.odd_unescaped_quotes()
        quotes.has_unescaped_quote()
        quotes.markers_outside_string_literals()
        quotes.non_numeric_literals()
        quotes.non_confinable_substrings()
        if policies is not None:
            for pid in policies.enabled:
                policy_instance(pid).warm()


def resolve_jobs(jobs: int | None, pages: int | None = None) -> int:
    """``None``/``0`` means "use every core"; never more jobs than pages."""
    if not jobs or jobs < 1:
        jobs = os.cpu_count() or 1
    if pages is not None:
        jobs = max(1, min(jobs, pages))
    return jobs


def run_pages(
    project_root: str | Path,
    pages: list[str | Path],
    audit: bool = False,
    jobs: int | None = 1,
    cache_dir: str | Path | None = None,
    cache_max_mb: float | None = None,
    parse_cache: dict | None = None,
    policies=None,
    profile: bool = False,
    farm=None,
    epoch: int = 0,
    resolver: IncludeResolver | None = None,
) -> list[PageResult]:
    """Analyze ``pages`` and return their results **in input order**.

    ``jobs=1`` is today's exact serial path: pages run in-process and
    share one parse cache and include resolver.  ``jobs>1`` fans work
    out to the analysis farm (:mod:`repro.farm`): a pool of persistent
    work-stealing workers, each running the serial per-page path with
    its own content-addressed memos.  Because a page's analysis is a
    pure function of the project tree — and every memo entry is keyed by
    content — the per-page results are identical either way,
    and merging in input order makes the whole run order-insensitive to
    worker completion.

    ``cache_max_mb`` caps the on-disk cache (LRU-by-atime pruning, see
    :meth:`DiskCache.prune`).  ``parse_cache`` lets a long-lived caller
    (the analysis server) keep parsed ASTs warm across calls; it is only
    consulted on the serial path — parallel workers hold their own — and
    the caller is responsible for evicting entries for changed files.
    ``resolver`` likewise lets it keep one :class:`IncludeResolver` (the
    file list and its per-directory name tables) across calls while the
    layout is unchanged; also serial-only, and the caller drops it on
    any file addition or deletion.

    ``policies`` is an optional
    :class:`~repro.analysis.policies.PolicyConfig`; ``None`` runs the
    default SQL-confinement analysis exactly as before.  The config
    travels to parallel workers (it is a frozen picklable dataclass) and
    its digest salts the disk-cache page key, so results computed under
    one config are never replayed under another.

    ``profile=True`` turns on the worker-side IPC accounting (pickled
    page-result bytes and serialization time); timeline recording
    additionally follows the driver's ``TIMELINE.enabled`` into the
    workers.  Neither changes any analysis output (DESIGN 5i).

    ``farm`` lets a long-lived caller (the analysis daemon) pass its own
    :class:`repro.farm.AnalysisFarm`, amortizing worker start-up across
    calls and projects; ``epoch`` is that caller's invalidation counter
    for this project (workers discard per-project state from older
    epochs).  Without ``farm``, a parallel run owns a private farm for
    the duration of the call.
    """
    root = Path(project_root)
    disk_cache = DiskCache(cache_dir, max_mb=cache_max_mb) if cache_dir else None
    project_state = None
    if disk_cache is not None:
        with PERF.timer("disk.project_state_hash"), TIMELINE.phase(
            "project-state-hash"
        ):
            project_state = project_state_hash(root)
    jobs = resolve_jobs(jobs, len(pages))
    if jobs <= 1 and farm is None:
        if parse_cache is None:
            parse_cache = {}
        if resolver is None:
            resolver = IncludeResolver(root)
        return [
            _page_result(
                root, page, audit, parse_cache, resolver, disk_cache,
                project_state, policies,
            )
            for page in pages
        ]
    from repro.farm.driver import AnalysisFarm

    owned = None
    if farm is None:
        owned = farm = AnalysisFarm(jobs)
    try:
        with PERF.timer("parallel.fanout"):
            results = farm.map_pages(
                root,
                [str(page) for page in pages],
                audit=audit,
                cache_dir=str(cache_dir) if cache_dir else None,
                cache_max_mb=cache_max_mb,
                project_state=project_state,
                policies=policies,
                profile=profile,
                epoch=epoch,
            )
    finally:
        if owned is not None:
            owned.shutdown()
    return results


def analyze_project(
    project_root: str | Path,
    name: str | None = None,
    audit: bool = False,
    jobs: int | None = 1,
    cache_dir: str | Path | None = None,
    cache_max_mb: float | None = None,
) -> ProjectReport:
    """Analyze a whole application: every entry page, one report.

    The report is deterministic in ``jobs``: parallel runs merge page
    results in page order, so hotspot ordering, diagnostic dedup, and
    summed tallies match the serial run exactly.
    """
    root = Path(project_root)
    report = ProjectReport(name=name or root.name)

    # one directory scan feeds both the file census and the page listing
    with PERF.timer("scan"):
        php_files = sorted(root.rglob("*.php"))
        report.files = len(php_files)
        report.lines = sum(
            len(path.read_text(errors="replace").splitlines())
            for path in php_files
        )
        pages = entry_pages(root, php_files=php_files)

    results = run_pages(
        root, pages, audit=audit, jobs=jobs, cache_dir=cache_dir,
        cache_max_mb=cache_max_mb,
    )

    seen_diagnostics: set = set()
    for page_result in results:
        for error in page_result.parse_errors:
            if error not in report.parse_errors:
                report.parse_errors.append(error)
        report.grammar_nonterminals += page_result.nonterminals
        report.grammar_productions += page_result.productions
        report.string_analysis_seconds += page_result.string_seconds
        report.check_seconds += page_result.check_seconds
        if page_result.audit is not None:
            for diagnostic in page_result.audit.diagnostics:
                if diagnostic.key not in seen_diagnostics:
                    seen_diagnostics.add(diagnostic.key)
                    report.diagnostics.append(diagnostic)
        report.hotspots.extend(page_result.reports)

    report.diagnostics.sort(key=lambda d: (d.file, d.line, d.kind, d.name))
    return report
