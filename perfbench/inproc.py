"""In-process passes of the benchmark's workloads, one per fresh
interpreter.

``run.py`` starts this script for the ``fuzz-oracle`` segments of an
end-to-end run, and for both halves of a traced run: an untraced pass,
then the same work again with the span wrappers and the program's
timeline recorder on.  The batch passes make the exact calls the golden
tests make (``entry_pages`` + ``run_pages`` + ``json_document``);
``daemon-edit`` serves an in-process daemon and talks to it through the
client; ``fuzz-oracle`` calls ``run_fuzz`` one page at a time.

Usage::

    python perfbench/inproc.py batch-serial|batch-farm --seed S [--apps APP ...]
    python perfbench/inproc.py daemon-edit --seed S --seconds T [--apps APP ...]
    python perfbench/inproc.py fuzz-oracle --pages PAGE_SEED ... [--speedometer FILE ...]

each with an optional ``--trace``.

The last stdout line is one JSON object with the pass's measurements.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import sys
import tempfile
import threading
import time
from pathlib import Path

import common
from common import (
    ALL_POLICIES,
    APPS,
    Goldens,
    build_corpus,
    document_text,
    edit_files,
    edit_once,
    farm_jobs,
    load_tenants,
)
from speedometer import Gauge
from tracer import Tracer, enable_timeline, timeline_phase_seconds


def _perf_snapshot() -> dict:
    """The program's ``--profile`` counters and timers for this pass."""
    from repro.obs.metrics import PERF

    snapshot = PERF.snapshot()
    return {"counters": snapshot["counters"], "timers": snapshot["timers"]}


def batch_pass(apps, seed: int, scratch: Path, farm: bool, timelines: list) -> dict:
    """One pass over the apps in seed order.  ``batch-serial``: cold with
    a fresh ``--cache-dir``, then warm from it.  ``batch-farm``: cold at
    ``min(4, nproc)`` jobs with every policy."""
    from repro.analysis.analyzer import entry_pages, run_pages
    from repro.analysis.reports import json_document

    policies = None
    jobs = 1
    if farm:
        from repro.analysis.policies import PolicyConfig

        policies = PolicyConfig(enabled=ALL_POLICIES)
        jobs = farm_jobs()
    corpus = build_corpus(scratch / "corpus", apps)
    goldens = Goldens()
    order = random.Random(seed).sample(list(apps), len(apps))
    attempted = failed = 0
    busy = 0.0
    walls: dict[str, float] = {}
    runs = ["cold"] if farm else ["cold", "warm"]
    for app in order:
        root = corpus / app
        cache = None if farm else scratch / "cache" / app
        for run in runs:
            started = time.perf_counter()
            results = run_pages(
                root, entry_pages(root), audit=True, jobs=jobs,
                cache_dir=cache, policies=policies, profile=True,
            )
            text = document_text(json_document(root, results))
            walls[f"{app}.{run}"] = time.perf_counter() - started
            attempted += 1
            failed += not goldens.matches(app, root, text, farm)
            busy += sum(r.string_seconds + r.check_seconds for r in results)
            timelines.extend(r.timeline for r in results)
    return {
        "wall_s": sum(walls.values()),
        "walls": walls,
        "attempted": attempted,
        "failed": failed,
        "jobs": jobs,
        "page_busy_s": busy if farm else 0.0,
        "perf": _perf_snapshot(),
    }


def daemon_pass(
    apps, seed: int, scratch: Path, seconds: float, timelines: list | None
) -> dict:
    """An in-process daemon with every app resident, then the run's
    edits through one client connection.  With ``timelines``, the page
    captures of every batch the daemon runs are collected there."""
    from repro.server import daemon as daemon_module
    from repro.server.client import ServerClient

    corpus = build_corpus(scratch / "corpus", apps)
    goldens = Goldens()
    order = random.Random(seed).sample(list(apps), len(apps))

    if timelines is not None:
        run_pages = daemon_module.run_pages

        def collecting_run_pages(*args, **kwargs):
            results = run_pages(*args, **kwargs)
            timelines.extend(r.timeline for r in results)
            return results

        daemon_module.run_pages = collecting_run_pages
    started = time.perf_counter()
    daemon = daemon_module.AnalysisDaemon(corpus / order[0], jobs=1)
    server = daemon_module.create_server(daemon, port=0)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}
    )
    thread.start()
    edits: list[dict] = []
    try:
        with ServerClient(port=server.server_address[1]).connect() as client:
            loaded = load_tenants(client, corpus, order, goldens)
            setup_s = time.perf_counter() - started
            for path in edit_files(corpus, seed, seconds):
                edits.append(edit_once(client, corpus, path, goldens))
            client.shutdown()
    finally:
        server.shutdown()
        server.server_close()
        daemon.close()
        thread.join()
    return {
        "wall_s": time.perf_counter() - started,
        "setup_s": setup_s,
        "attempted": len(loaded) + len(edits),
        "failed": loaded.count(False) + sum(not e["ok"] for e in edits),
        "edits": edits,
        "perf": _perf_snapshot(),
    }


def fuzz_pass(pages: list[int], gauge: Gauge | None) -> dict:
    """``run_fuzz`` one page at a time, for the given page seeds.  With
    a ``gauge``, each page's ``scale`` comes from the speedometers' rate
    while it ran."""
    from repro.oracle.fuzz import run_fuzz

    results: list[dict] = []
    started = time.perf_counter()
    for page in pages:
        start = gauge.read() if gauge else None
        cpu = time.process_time()
        begin = time.perf_counter()
        report = run_fuzz(
            1, page, minimize=False, progress_every=0, log=lambda *_: None
        )
        results.append({
            "seed": page,
            "wall_s": time.perf_counter() - begin,
            "cpu_s": time.process_time() - cpu,
            "scale": gauge.scale_since(start) if gauge else 1.0,
            "divergences": len(report.divergences),
            "hits": report.hits,
            "vectors": report.vectors,
            "skipped": report.skipped_vectors,
        })
    return {
        "wall_s": time.perf_counter() - started,
        "attempted": len(results),
        "failed": sum(page["divergences"] > 0 for page in results),
        "pages": results,
        "perf": _perf_snapshot(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "workload",
        choices=["batch-serial", "batch-farm", "daemon-edit", "fuzz-oracle"],
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--apps", nargs="+", default=list(APPS), choices=APPS)
    parser.add_argument("--pages", nargs="+", type=int, default=[])
    parser.add_argument("--speedometer", nargs="+", type=Path, default=[])
    args = parser.parse_args(argv)
    common.require_checkout()

    tracer = None
    timelines: list = []
    if args.trace:
        tracer = Tracer()
        tracer.install()
        enable_timeline()
    common.WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="inproc-", dir=common.WORK))
    try:
        tempfile.tempdir = str(scratch)
        if args.workload == "fuzz-oracle":
            gauge = Gauge(args.speedometer) if args.speedometer else None
            try:
                result = fuzz_pass(args.pages, gauge)
            finally:
                if gauge:
                    gauge.close()
        elif args.workload == "daemon-edit":
            result = daemon_pass(
                args.apps, args.seed, scratch, args.seconds,
                timelines if args.trace else None,
            )
        else:
            result = batch_pass(
                args.apps, args.seed, scratch,
                args.workload == "batch-farm", timelines,
            )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if tracer is not None:
        result["spans"] = tracer.summary()
        result["phases"] = timeline_phase_seconds([t for t in timelines if t])
        tracer.write(
            common.OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
