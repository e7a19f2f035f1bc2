"""CI performance gate: fail when cold analysis walls regress.

Measures the cold serial wall of the ``sqlciv`` CLI — one fresh
subprocess per app, no cache, ``--jobs 1``, exactly the ``serial``
configuration of :mod:`benchmarks.perf_harness` — and compares each
wall against the per-app budget in ``benchmarks/budgets.json``.  The
gate fails if any app runs more than ``tolerance`` (default 25%) over
its budget, so a change that quietly gives back the kernel-level
speedups breaks CI instead of landing.

``--parallel`` gates the analysis farm instead: for every app in
``parallel_speedup_min`` it measures the in-process page-analysis wall
(the ``run.pages_wall`` timer a ``--profile`` run embeds) serially and
at ``min(parallel_jobs, cpu_count)`` workers, and fails if the speedup
falls below the per-app floor.  The floors are measured at two workers,
so any box with two or more cores can enforce them; only a single-core
box, where no speedup is possible, skips the gate (with a warning).

``--fuzz`` gates the differential fuzzer instead: the median per-page
CPU over fuzz page seeds 0–99 (``run_fuzz`` one page at a time, no
minimization, the ``fuzz-oracle`` page of ``perfbench``), each page
the best of ``--reps`` fresh processes, against ``fuzz_page_cpu_seconds``
at the same tolerance.  ``--fuzz --update`` re-calibrates that budget
only.

Budgets are calibrated on the reference machine with deliberate
headroom over the measured walls (see the ``calibration`` block in
``budgets.json``), so ordinary CI-runner jitter stays well inside the
tolerance; a genuine algorithmic regression does not.  After an
intentional performance change, re-calibrate with::

    python benchmarks/bench_gate.py --update

which re-measures and rewrites ``budgets.json`` using the same
headroom factor.

Usage::

    python benchmarks/bench_gate.py [--tolerance 0.25] [--reps 3] [--update]
    python benchmarks/bench_gate.py --parallel [--reps 3]
    python benchmarks/bench_gate.py --fuzz [--reps 3] [--update]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
BUDGETS_PATH = Path(__file__).resolve().parent / "budgets.json"

sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from perf_harness import analysis_wall, run_cli  # noqa: E402


def machine_description() -> str:
    """CPU model, core count and interpreter: what a budget was measured on."""
    model = platform.processor() or platform.machine()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return (
        f"{model}, {os.cpu_count()} cpu, "
        f"{platform.python_implementation()} {platform.python_version()}"
    )


def measure_app(name: str, reps: int) -> float:
    """Best-of-``reps`` cold serial CLI wall for one corpus app.

    Best-of (not mean) because every source of noise — scheduler,
    page-cache state, CPU frequency — only ever adds time; the minimum
    is the closest observation of the code's actual cost.
    """
    from repro.corpus import build_app

    walls = []
    with tempfile.TemporaryDirectory(prefix=f"benchgate-{name}-") as tmp:
        build_app(Path(tmp), name)
        app_root = Path(tmp) / name
        for _ in range(reps):
            wall, _doc, _exit = run_cli(app_root, jobs=1)
            walls.append(wall)
    return min(walls)


def measure_speedup(name: str, jobs: int, reps: int) -> float | None:
    """Best-of-``reps`` analysis-wall speedup (serial / ``jobs``-worker)
    for one corpus app; ``None`` if the timer is missing."""
    from repro.corpus import build_app

    serial_walls: list[float] = []
    parallel_walls: list[float] = []
    with tempfile.TemporaryDirectory(prefix=f"benchgate-{name}-") as tmp:
        build_app(Path(tmp), name)
        app_root = Path(tmp) / name
        for _ in range(reps):
            _wall, doc, _exit = run_cli(app_root, jobs=1)
            serial = analysis_wall(doc)
            if serial is not None:
                serial_walls.append(serial)
            _wall, doc, _exit = run_cli(app_root, jobs=jobs)
            parallel = analysis_wall(doc)
            if parallel is not None:
                parallel_walls.append(parallel)
    if not serial_walls or not parallel_walls:
        return None
    return min(serial_walls) / min(parallel_walls)


def gate_parallel(budgets: dict, reps: int) -> int:
    """Fail when any app's farm speedup falls below its budget floor."""
    floors: dict[str, float] = budgets.get("parallel_speedup_min", {})
    if not floors:
        print("no parallel_speedup_min budgets configured; nothing to gate")
        return 0
    cpu_count = os.cpu_count() or 1
    if cpu_count == 1:
        print(
            "WARNING: cpu_count 1; no parallel speedup is possible here "
            "— skipping the parallel gate"
        )
        return 0
    jobs = min(budgets.get("parallel_jobs", 4), cpu_count)

    failures = []
    for app, floor in floors.items():
        print(
            f"measuring {app} speedup at --jobs {jobs} "
            f"(best of {reps}) ...",
            flush=True,
        )
        speedup = measure_speedup(app, jobs, reps)
        if speedup is None:
            print(f"  {app}: no run.pages_wall timer in output  FAIL")
            failures.append((app, 0.0, floor))
            continue
        verdict = "ok" if speedup >= floor else "FAIL"
        print(f"  {app}: {speedup:.2f}x  (floor {floor}x)  {verdict}")
        if speedup < floor:
            failures.append((app, speedup, floor))

    if failures:
        print(
            f"\nparallel gate FAILED: {len(failures)} app(s) below the "
            "speedup floor:",
            file=sys.stderr,
        )
        for app, speedup, floor in failures:
            print(f"  {app}: {speedup:.2f}x < {floor}x", file=sys.stderr)
        return 1
    print(f"parallel gate passed ({len(floors)} apps, --jobs {jobs})")
    return 0


#: fuzz page seeds the ``--fuzz`` gate times
FUZZ_PAGES = 100

#: one pass over the fuzz page seeds in a fresh process: per-page CPU
_FUZZ_PASS = """
import json, sys, time
from repro.oracle.fuzz import run_fuzz

cpu = []
for seed in range(int(sys.argv[1])):
    begin = time.process_time()
    run_fuzz(1, seed, minimize=False, progress_every=0, log=lambda *_: None)
    cpu.append(time.process_time() - begin)
print(json.dumps(cpu))
"""


def measure_fuzz(reps: int) -> float:
    """Median over the fuzz page seeds of each page's best-of-``reps``
    CPU, every rep in a fresh process so no memo carries over."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    passes = []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, "-c", _FUZZ_PASS, str(FUZZ_PAGES)],
            capture_output=True, text=True, env=env, check=True,
        )
        passes.append(json.loads(proc.stdout.splitlines()[-1]))
    return statistics.median(min(page) for page in zip(*passes))


def gate_fuzz(budgets: dict, reps: int, tolerance: float, update: bool) -> int:
    """Fail when the median fuzz page costs more CPU than its budget."""
    print(
        f"measuring {FUZZ_PAGES} fuzz pages (best of {reps} per page) ...",
        flush=True,
    )
    median = measure_fuzz(reps)
    if update:
        calibration = budgets.setdefault("calibration", {})
        headroom = calibration.get("headroom_factor", 1.4)
        budgets["fuzz_page_cpu_seconds"] = round(median * headroom, 4)
        calibration["fuzz"] = {
            "measured_median_page_cpu_seconds": round(median, 4),
            "pages": FUZZ_PAGES,
            "best_of": reps,
            "machine": machine_description(),
        }
        BUDGETS_PATH.write_text(json.dumps(budgets, indent=2) + "\n")
        print(f"recalibrated the fuzz budget in {BUDGETS_PATH}")
        return 0
    budget = budgets["fuzz_page_cpu_seconds"]
    limit = budget * (1.0 + tolerance)
    verdict = "ok" if median <= limit else "FAIL"
    print(
        f"  median page: {median * 1000:.1f} ms CPU  (budget "
        f"{budget * 1000:.1f} ms, limit {limit * 1000:.1f} ms)  {verdict}"
    )
    if median > limit:
        print(
            f"\nfuzz gate FAILED: median page {median:.4f}s > {limit:.4f}s. "
            "If this regression is intentional, re-calibrate with "
            "`python benchmarks/bench_gate.py --fuzz --update --reps 5`.",
            file=sys.stderr,
        )
        return 1
    print("fuzz gate passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tolerance", type=float, default=None,
        help="allowed fraction over budget (default: from budgets.json)",
    )
    parser.add_argument(
        "--reps", type=int, default=3,
        help="measurements per app; the best (minimum) wall is compared",
    )
    parser.add_argument(
        "--update", action="store_true",
        help="re-measure and rewrite budgets.json instead of gating",
    )
    parser.add_argument(
        "--parallel", action="store_true",
        help=(
            "gate the analysis-farm speedup floors (parallel_speedup_min "
            "in budgets.json) instead of the serial wall budgets"
        ),
    )
    parser.add_argument(
        "--fuzz", action="store_true",
        help=(
            "gate the median per-page CPU of the differential fuzzer "
            "(fuzz_page_cpu_seconds in budgets.json) instead"
        ),
    )
    args = parser.parse_args(argv)

    budgets = json.loads(BUDGETS_PATH.read_text())
    if args.parallel:
        return gate_parallel(budgets, args.reps)
    tolerance = (
        args.tolerance if args.tolerance is not None
        else budgets.get("tolerance", 0.25)
    )
    if args.fuzz:
        return gate_fuzz(budgets, args.reps, tolerance, args.update)
    headroom = budgets.get("calibration", {}).get("headroom_factor", 1.4)

    measured: dict[str, float] = {}
    for app in budgets["serial_wall_seconds"]:
        print(f"measuring {app} (best of {args.reps}) ...", flush=True)
        measured[app] = measure_app(app, args.reps)

    if args.update:
        budgets["serial_wall_seconds"] = {
            app: round(wall * headroom, 2) for app, wall in measured.items()
        }
        budgets.setdefault("calibration", {})["headroom_factor"] = headroom
        budgets["calibration"]["measured_wall_seconds"] = {
            app: round(wall, 3) for app, wall in measured.items()
        }
        budgets["calibration"]["machine"] = machine_description()
        budgets["calibration"]["best_of"] = args.reps
        BUDGETS_PATH.write_text(json.dumps(budgets, indent=2) + "\n")
        print(f"recalibrated {BUDGETS_PATH}")
        return 0

    failures = []
    for app, budget in budgets["serial_wall_seconds"].items():
        wall = measured[app]
        limit = budget * (1.0 + tolerance)
        verdict = "ok" if wall <= limit else "FAIL"
        print(
            f"  {app}: {wall:.3f}s  (budget {budget}s, "
            f"limit {limit:.3f}s)  {verdict}",
            flush=True,
        )
        if wall > limit:
            failures.append((app, wall, limit))

    if failures:
        print(
            f"\nbench gate FAILED: {len(failures)} app(s) over "
            f"{tolerance:.0%} past budget:",
            file=sys.stderr,
        )
        for app, wall, limit in failures:
            print(
                f"  {app}: {wall:.3f}s > {limit:.3f}s "
                f"(budget-relative {wall / (limit / (1 + tolerance)):.2f}x)",
                file=sys.stderr,
            )
        print(
            "If this regression is intentional, re-calibrate with "
            "`python benchmarks/bench_gate.py --update`.",
            file=sys.stderr,
        )
        return 1

    spread = statistics.median(measured.values())
    print(f"bench gate passed ({len(measured)} apps, median {spread:.3f}s)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
