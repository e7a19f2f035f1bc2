"""Wall-clock benchmark of the parallel driver, the on-disk cache, and
the analysis daemon.

Runs every corpus application through the ``sqlciv`` CLI in four
batch configurations —

* ``serial``         — ``--jobs 1``, no cache (the baseline path),
* ``parallel``       — ``--jobs N`` (default: one per core),
* ``cache_cold``     — ``--jobs 1 --cache-dir`` on an empty cache,
* ``cache_warm``     — the same command again on the now-populated cache

— plus a ``sqlciv serve`` daemon scenario measuring the per-request
wall of three requests against one resident process:

* ``daemon_cold``    — first ``analyze`` (every page analyzed),
* ``daemon_warm``    — second ``analyze`` (every page replayed from memo),
* ``daemon_edit``    — ``analyze`` after touching **one** file and
  sending ``invalidate`` (only that file's dependents re-analyzed)

— asserting after each app that all configurations emit the **same
verdicts** (the ``--json`` documents, minus the ``perf`` block, must
match), and writes the timing table to ``BENCH_table1.json`` at the
repository root.  Each batch configuration is a fresh subprocess, so
in-process memos (verdict cache, image cache, parse cache) are
genuinely cold every time; only the ``--cache-dir`` state carries over
to the warm run, and only the daemon scenario keeps memos resident.

The warm run's perf counters quantify how much phase-2 work the disk
cache avoids: ``policy.checks_avoided`` counts hotspot cascades served
from cached page results, and ``policy.check_cascades`` counts cascades
actually executed.

Usage::

    python benchmarks/perf_harness.py [--jobs N] [--apps eve_activity_tracker ...]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_APPS = [
    "eve_activity_tracker",
    "tiger_php_news",
    "utopia_news_pro",
    "warp_cms",
    "e107",
]


def run_cli(app_root: Path, jobs: int, cache_dir: Path | None = None):
    """One fresh-process CLI run; returns (wall_seconds, json_doc, exit)."""
    command = [
        sys.executable,
        "-m",
        "repro.analysis.cli",
        str(app_root),
        "--json",
        "--profile",
        "--jobs",
        str(jobs),
    ]
    if cache_dir is not None:
        command += ["--cache-dir", str(cache_dir)]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    started = time.perf_counter()
    proc = subprocess.run(command, capture_output=True, text=True, env=env)
    wall = time.perf_counter() - started
    if proc.returncode not in (0, 1, 3):
        raise RuntimeError(
            f"sqlciv failed ({proc.returncode}): {proc.stderr[-2000:]}"
        )
    return wall, json.loads(proc.stdout), proc.returncode


def verdicts(document: dict) -> dict:
    """The comparable part of a --json document (perf/timing stripped)."""
    return {key: value for key, value in document.items() if key != "perf"}


def analysis_wall(document: dict) -> float | None:
    """The in-process page-analysis wall (``run.pages_wall`` timer) a
    ``--profile`` run embeds — interpreter start-up and report rendering
    excluded, so the parallel speedup measures page throughput rather
    than being drowned by the ~0.5s constant python/import cost every
    subprocess pays regardless of jobs."""
    return document.get("perf", {}).get("timers", {}).get("run.pages_wall")


#: farm counters worth surfacing per app
FARM_COUNTERS = ("farm.tasks.stolen",)


def bench_daemon(app_root: Path, serial_doc: dict) -> dict:
    """Cold / warm / post-single-edit request walls against one
    ``sqlciv serve`` process (README "Server mode")."""
    from repro.server.client import ServerClient

    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.analysis.cli", "serve",
         str(app_root), "--port", "0", "--log-level", "quiet"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env,
    )
    try:
        ready = json.loads(proc.stdout.readline())
        port = int(ready["listening"].rsplit(":", 1)[1])
        with ServerClient(port=port).connect(retry_seconds=10.0) as client:
            started = time.perf_counter()
            cold = client.analyze()
            cold_wall = time.perf_counter() - started

            started = time.perf_counter()
            warm = client.analyze()
            warm_wall = time.perf_counter() - started

            # single edit: prefer a leaf page nothing else includes
            # (style.php in the eve corpus app), else the first page
            pages = [Path(p["page"]) for p in cold["document"]["pages"]]
            target = next(
                (p for p in pages if p.name == "style.php"), pages[0]
            )
            target.write_text(target.read_text() + "\n")
            rel = target.relative_to(app_root).as_posix()
            client.invalidate([rel])
            started = time.perf_counter()
            edited = client.analyze()
            edit_wall = time.perf_counter() - started

            client.shutdown()
        proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    for label, response in (("cold", cold), ("warm", warm)):
        if verdicts(response["document"]) != verdicts(serial_doc):
            raise AssertionError(
                f"daemon {label} run diverged from the serial run"
            )
    if warm["pages_reanalyzed"] != 0:
        raise AssertionError("daemon warm run re-analyzed pages")
    return {
        "daemon_cold": round(cold_wall, 3),
        "daemon_warm": round(warm_wall, 3),
        "daemon_edit": round(edit_wall, 3),
        "edited_file": rel,
        "pages_total": cold["pages_total"],
        "pages_reanalyzed_after_edit": edited["pages_reanalyzed"],
        "clean_exit": proc.returncode == 0,
    }


def bench_app(name: str, jobs: int) -> dict:
    from repro.corpus import build_app

    with tempfile.TemporaryDirectory(prefix=f"bench-{name}-") as tmp:
        build_app(Path(tmp), name)
        app_root = Path(tmp) / name
        cache_dir = Path(tmp) / "cache"

        serial_wall, serial_doc, serial_exit = run_cli(app_root, jobs=1)
        parallel_wall, parallel_doc, _ = run_cli(app_root, jobs=jobs)
        cold_wall, cold_doc, _ = run_cli(app_root, jobs=1, cache_dir=cache_dir)
        warm_wall, warm_doc, _ = run_cli(app_root, jobs=1, cache_dir=cache_dir)

        for label, doc in (
            ("parallel", parallel_doc),
            ("cache_cold", cold_doc),
            ("cache_warm", warm_doc),
        ):
            if verdicts(doc) != verdicts(serial_doc):
                raise AssertionError(
                    f"{name}: {label} run diverged from the serial run"
                )

        daemon = bench_daemon(app_root, serial_doc)

        warm_counters = warm_doc.get("perf", {}).get("counters", {})
        cold_counters = cold_doc.get("perf", {}).get("counters", {})
        avoided = warm_counters.get("policy.checks_avoided", 0)
        executed = warm_counters.get("policy.check_cascades", 0)
        total = avoided + executed
        # a speedup ratio is only meaningful when the box can actually
        # run the requested workers concurrently; on an undersized box
        # (cpu_count < jobs) report null + a degraded marker instead of
        # a number that reads as "parallelism doesn't help"
        cpu_count = os.cpu_count() or 1
        degraded = cpu_count < jobs
        serial_analysis = analysis_wall(serial_doc)
        parallel_analysis = analysis_wall(parallel_doc)
        parallel_counters = parallel_doc.get("perf", {}).get("counters", {})
        farm = {
            key: parallel_counters[key]
            for key in FARM_COUNTERS
            if parallel_counters.get(key)
        }
        return {
            "app": name,
            "pages": len(serial_doc["pages"]),
            "hotspots": sum(len(p["hotspots"]) for p in serial_doc["pages"]),
            "verified": serial_doc["verified"],
            "exit_code": serial_exit,
            "wall_seconds": {
                "serial": round(serial_wall, 3),
                "parallel": round(parallel_wall, 3),
                "cache_cold": round(cold_wall, 3),
                "cache_warm": round(warm_wall, 3),
                "daemon_cold": daemon["daemon_cold"],
                "daemon_warm": daemon["daemon_warm"],
                "daemon_edit": daemon["daemon_edit"],
            },
            "daemon": {
                "edited_file": daemon["edited_file"],
                "pages_reanalyzed_after_edit":
                    daemon["pages_reanalyzed_after_edit"],
                "pages_total": daemon["pages_total"],
                "clean_exit": daemon["clean_exit"],
            },
            "analysis_wall_seconds": {
                "serial": (
                    round(serial_analysis, 3)
                    if serial_analysis is not None else None
                ),
                "parallel": (
                    round(parallel_analysis, 3)
                    if parallel_analysis is not None else None
                ),
            },
            # page-throughput speedup from the analysis wall; null (with
            # a marker) whenever the box is degraded or the timer is
            # missing, never a misleading number
            "parallel_speedup": (
                None
                if degraded or not serial_analysis or not parallel_analysis
                else round(serial_analysis / parallel_analysis, 2)
            ),
            "process_speedup": (
                None if degraded else round(serial_wall / parallel_wall, 2)
            ),
            **({"degraded": "cpu_count < jobs"} if degraded else {}),
            **({"farm_counters": farm} if farm else {}),
            "warm_speedup": round(cold_wall / warm_wall, 2),
            "phase2_cascades_cold": cold_counters.get("policy.check_cascades", 0),
            "phase2_cascades_warm": executed,
            "phase2_avoided_warm": avoided,
            "phase2_avoided_fraction": round(avoided / total, 3) if total else None,
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs", type=int, default=max(2, os.cpu_count() or 2),
        help=(
            "worker count for the parallel configuration (default: one "
            "per core, at least 2 so the pool is actually exercised; "
            "real speedup of course needs >1 core — see cpu_count in "
            "the output)"
        ),
    )
    parser.add_argument(
        "--apps", nargs="*", default=DEFAULT_APPS,
        help="corpus applications to benchmark",
    )
    parser.add_argument(
        "--output", default=str(REPO_ROOT / "BENCH_table1.json"),
        help="where to write the timing table",
    )
    args = parser.parse_args(argv)

    sys.path.insert(0, str(REPO_ROOT / "src"))

    rows = []
    for name in args.apps:
        print(f"benchmarking {name} ...", flush=True)
        row = bench_app(name, args.jobs)
        rows.append(row)
        speedup = (
            f"{row['parallel_speedup']}x analysis"
            if row["parallel_speedup"] is not None
            else "speedup n/a: " + row.get("degraded", "timer missing")
        )
        print(
            f"  serial {row['wall_seconds']['serial']}s"
            f"  parallel {row['wall_seconds']['parallel']}s"
            f" ({speedup})"
            f"  warm-cache {row['wall_seconds']['cache_warm']}s"
            f" ({row['warm_speedup']}x,"
            f" {row['phase2_avoided_warm']} cascades avoided)",
            flush=True,
        )
        print(
            f"  daemon cold {row['wall_seconds']['daemon_cold']}s"
            f"  warm {row['wall_seconds']['daemon_warm']}s"
            f"  post-edit {row['wall_seconds']['daemon_edit']}s"
            f" ({row['daemon']['pages_reanalyzed_after_edit']}/"
            f"{row['daemon']['pages_total']} pages re-analyzed)",
            flush=True,
        )

    table = {
        "benchmark": (
            "parallel page analysis + content-addressed caching + "
            "incremental analysis daemon"
        ),
        "jobs": args.jobs,
        "python": sys.version.split()[0],
        "cpu_count": os.cpu_count(),
        "apps": rows,
    }
    output = Path(args.output)
    output.write_text(json.dumps(table, indent=2) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
