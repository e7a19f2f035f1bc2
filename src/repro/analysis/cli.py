"""Command-line interface: ``sqlciv <project-root> [entry.php …]``.

Mirrors the workflow of the paper's tool: point it at a PHP web
application, get either bug reports or "verified".

Pages are analyzed through :func:`repro.analysis.analyzer.run_pages`,
so ``--jobs N`` fans them out over worker processes and ``--cache-dir``
enables the on-disk result cache — neither changes any output or exit
code: results are merged in page order, so a parallel or cache-served
run renders byte-for-byte what a serial cold run renders.

Observability (see README "Observability"): ``--sarif FILE`` writes the
findings with their taint-chain codeFlows as SARIF 2.1.0, ``--trace
FILE`` renders the recorded spans as a per-page tree in JSON lines,
and ``--log-level`` controls the stderr diagnostics routed through
:mod:`logging` — stdout carries only the report (or the single
``--json`` document).

Exit codes:

* ``0`` — verified, and (when auditing) every page was fully modeled:
  the soundness theorem applies without caveats;
* ``1`` — at least one SQLCIV violation was reported;
* ``2`` — usage error (argparse);
* ``3`` — verified, but the audit found soundness caveats (``eval``,
  unresolved dynamic includes, unmodeled builtins, …): "no report" is
  conditional on those constructs being benign.  Only ``--audit`` /
  ``--json`` runs can exit 3.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from repro.obs import trace
from repro.obs import timeline as obs_timeline
from repro.obs.gcprobe import GC_PROBE
from repro.obs.timeline import TIMELINE
from repro.obs.metrics import PERF, render_table

from .analyzer import entry_pages, run_pages
from .reports import SOUND, UNSOUND_CAVEATS, json_document
from .sarif import write_sarif

log = logging.getLogger(__name__)

#: ``--log-level`` vocabulary.  ``quiet`` still lets genuine errors out.
LOG_LEVELS = {
    "quiet": logging.ERROR,
    "info": logging.INFO,
    "debug": logging.DEBUG,
}

EXIT_VERIFIED = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2          # argparse's own convention
EXIT_CAVEATS = 3


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # server-mode subcommands ride on the same entry point: everything
    # else is the classic batch analyzer
    if argv and argv[0] == "serve":
        from repro.server.daemon import serve_main

        return serve_main(argv[1:])
    if argv and argv[0] == "client":
        from repro.server.client import client_main

        return client_main(argv[1:])
    if argv and argv[0] == "fuzz":
        from repro.oracle.fuzz import fuzz_main

        return fuzz_main(argv[1:])
    if argv and argv[0] == "fix":
        from repro.remediate.engine import fix_main

        return fix_main(argv[1:])
    if argv and argv[0] == "stats":
        from repro.obs.stats import stats_main

        return stats_main(argv[1:])
    parser = argparse.ArgumentParser(
        prog="sqlciv",
        description=(
            "Grammar-based static detection of SQL command injection "
            "vulnerabilities in PHP web applications "
            "(reproduction of Wassermann & Su, PLDI 2007).  "
            "`sqlciv serve` runs the persistent analysis daemon and "
            "`sqlciv client` talks to it (see README 'Server mode')."
        ),
    )
    parser.add_argument("root", help="project root directory")
    parser.add_argument(
        "pages",
        nargs="*",
        help="entry pages to analyze (default: every top-level .php page)",
    )
    parser.add_argument(
        "--verbose", "-v", action="store_true", help="show verified hotspots too"
    )
    parser.add_argument(
        "--audit",
        action="store_true",
        help=(
            "run the soundness audit: flag every unmodeled or widened "
            "construct and attach a confidence level to each verdict"
        ),
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit one JSON document (implies --audit) instead of text",
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=0,
        metavar="N",
        help=(
            "analyze N pages in parallel (default: one per CPU core); "
            "--jobs 1 runs everything in-process"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        help=(
            "cache parsed ASTs and per-page results in DIR, keyed by "
            "content hashes; repeat runs over an unchanged project are "
            "near-instant and always reproduce the uncached verdicts"
        ),
    )
    parser.add_argument(
        "--cache-max-mb",
        type=float,
        metavar="MB",
        help=(
            "cap the --cache-dir size; past the cap, least-recently-used "
            "entries are pruned (LRU by access time)"
        ),
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        const="table",
        choices=("table", "timeline"),
        metavar="MODE",
        help=(
            "print a per-phase timing, cache-counter and garbage-collector "
            "table to stderr (with --json, also embed it under a \"perf\" "
            "key).  "
            "--profile=timeline additionally records worker-attributed "
            "phase spans and writes them to --timeline-out; render them "
            "with `sqlciv stats timeline.json`"
        ),
    )
    parser.add_argument(
        "--timeline-out",
        metavar="FILE",
        default="timeline.json",
        help=(
            "where --profile=timeline writes its capture "
            "(default: timeline.json)"
        ),
    )
    parser.add_argument(
        "--policy-config",
        metavar="FILE",
        help=(
            "enable sink policies from a YAML config (see README "
            "'Policies'); without it only the classic SQL confinement "
            "policy runs, with byte-identical output"
        ),
    )
    parser.add_argument(
        "--sarif",
        metavar="FILE",
        help=(
            "write the violations as a SARIF 2.1.0 log to FILE, with each "
            "finding's taint chain rendered as a codeFlow"
        ),
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help=(
            "write the recorded spans as a tree per page (parse, "
            "includes, phase 1, FST images, intersections, phase 2 "
            "checks) in JSON lines to FILE; the tree shape is identical "
            "for serial and parallel runs, and span ids match "
            "--profile=timeline's"
        ),
    )
    parser.add_argument(
        "--log-level",
        choices=sorted(LOG_LEVELS),
        default="info",
        help=(
            "diagnostic verbosity on stderr (default: info); stdout carries "
            "only the report / --json document either way"
        ),
    )
    args = parser.parse_args(argv)

    logging.basicConfig(
        stream=sys.stderr,
        level=LOG_LEVELS[args.log_level],
        format="%(levelname)s %(name)s: %(message)s",
    )

    root = Path(args.root)
    if not root.is_dir():
        parser.error(f"{root} is not a directory")
    if args.jobs < 0:
        parser.error("--jobs must be >= 1 (or 0 for one per CPU core)")

    policies = None
    if args.policy_config:
        from .policies import PolicyConfigError, load_policy_config

        try:
            policies = load_policy_config(args.policy_config)
        except PolicyConfigError as exc:
            parser.error(f"--policy-config: {exc}")

    PERF.reset()
    # both views render the same recorder's page captures; only the
    # trace carries per-span perf deltas
    TIMELINE.configure(
        args.profile == "timeline" or bool(args.trace), perf=bool(args.trace)
    )
    GC_PROBE.configure(bool(args.profile))

    if args.pages:
        pages = [root / page for page in args.pages]
    else:
        with TIMELINE.phase("scan"):
            pages = entry_pages(root)

    auditing = args.audit or args.json
    # analysis wall: page analysis only, excluding interpreter start-up
    # and rendering — the numerator/denominator of the page-throughput
    # speedups the perf harness reports (perf-block only, so recording
    # it never changes analysis output)
    with PERF.timer("run.pages_wall"):
        results = run_pages(
            root, pages, audit=auditing, jobs=args.jobs,
            cache_dir=args.cache_dir, cache_max_mb=args.cache_max_mb,
            policies=policies, profile=bool(args.profile),
        )

    any_violation = False
    any_escape = False
    if args.json:
        # the same document builder the analysis server replays from its
        # memo — shared so server-mode output is byte-identical (README
        # "Server mode")
        document = json_document(root, results)
        any_violation = not document["verified"]
        any_escape = document["confidence"] == UNSOUND_CAVEATS
        if args.profile:
            document["perf"] = PERF.snapshot()
        print(json.dumps(document, indent=2))

    for page_result in [] if args.json else results:
        reports = page_result.reports
        page_audit = page_result.audit
        if page_audit is not None:
            any_escape |= bool(page_audit.escapes)
        any_violation |= any(not r.verified for r in reports)

        for report in reports:
            if report.verified and not args.verbose:
                continue
            print(report.render())
            print()
        if page_audit is not None and (
            args.verbose or page_audit.confidence != SOUND
        ):
            print(page_audit.render())
            print()
        for error in page_result.parse_errors:
            log.warning("%s", error)

    if not args.json and not any_violation:
        if any_escape:
            print(
                "verified with caveats: no SQLCIV reports, but the audit "
                "found soundness holes (see diagnostics)"
            )
        else:
            print("verified: no SQLCIV reports")

    if args.sarif:
        write_sarif(args.sarif, root, results, policies=policies)
        log.info("SARIF log written to %s", args.sarif)
    if args.trace:
        trace.write_run(
            args.trace,
            [r.timeline for r in results],
            attrs={"root": str(root), "jobs": args.jobs},
        )
        log.info("trace written to %s", args.trace)

    if args.profile == "timeline":
        timeline = obs_timeline.assemble(
            [r.timeline for r in results],
            TIMELINE.drain_driver_spans(),
            attrs={"root": str(root), "jobs": args.jobs},
        )
        obs_timeline.write_timeline(args.timeline_out, timeline)
        log.info(
            "timeline written to %s (render with `sqlciv stats %s`)",
            args.timeline_out, args.timeline_out,
        )
    if args.profile:
        print(render_table(PERF.snapshot()), file=sys.stderr)

    if any_violation:
        return EXIT_VIOLATIONS
    if auditing and any_escape:
        return EXIT_CAVEATS
    return EXIT_VERIFIED


if __name__ == "__main__":
    raise SystemExit(main())
