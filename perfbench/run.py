"""perfbench: the analyzer's end-to-end benchmark, one workload per run.

    python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1

Workloads (all closed loops driven from this one process; see README):

* ``batch-serial`` -- a pass over the five corpus apps, each app a fresh
  ``sqlciv <app> --json --audit --jobs 1`` process cold with an empty
  ``--cache-dir``, then once more warm from that cache;
* ``batch-farm``   -- the same apps at ``--jobs min(4, nproc)`` with every
  sink policy enabled;
* ``daemon-edit``  -- ``sqlciv serve`` with e107 resident, one client
  editing its files and timing ``invalidate`` + ``analyze``; two daemon
  sessions per run;
* ``fuzz-oracle``  -- three fresh-interpreter segments of the
  differential fuzzer, timed page by page.

``--seconds`` is how long the batch workloads go on starting rounds and
sizes the daemon's edit list and the fuzz page list (see ``common.py``);
``--seed`` orders the work.  Every output is checked: CLI and daemon
documents byte for byte against ``tests/analysis/golden{,_policies}``,
fuzz pages for divergences.  With ``--trace 0`` the run reports the
end-to-end metrics, with every time scaled by a speedometer sharing the
measured CPUs (see ``speedometer.py``).  With ``--trace 1`` it runs the
workload's in-process pass, on half the inputs, twice in fresh
interpreters, untraced and then traced, and reports the per-layer
metrics.  The last stdout line is the JSON result; the exit code is
non-zero when any output was wrong.
"""

from __future__ import annotations

import argparse
import compileall
import itertools
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import common
from common import (
    ALL_POLICIES,
    APPS,
    DAEMON_APPS,
    Goldens,
    StartupProbes,
    build_corpus,
    edit_files,
    edit_once,
    farm_jobs,
    fuzz_pages,
    last_json_line,
    load_tenants,
    quantile,
    run_process,
    write_policy_config,
)
from speedometer import Speedometer

WORKLOADS = ("batch-serial", "batch-farm", "daemon-edit", "fuzz-oracle")
INPROC = str(Path(__file__).resolve().parent / "inproc.py")

E2E_UNITS = {
    "setup_s": "s",
    "op_cpu_s": "s",
    "op_wall_s": "s",
    "peak_rss_mb": "MB",
}

LAYER_UNITS = {
    "php.parse.calls": "count",
    "php.parse.self_s": "s",
    "phase1.calls": "count",
    "phase1.self_s": "s",
    "include.self_s": "s",
    "absdom.self_s": "s",
    "image.calls": "count",
    "image.self_s": "s",
    "image.cache_hit_ratio": "ratio",
    "intersect.calls": "count",
    "intersect.self_s": "s",
    "prefilter.calls": "count",
    "prefilter.self_s": "s",
    "prefilter.hit_ratio": "ratio",
    "earley.membership.calls": "count",
    "earley.membership.self_s": "s",
    "cascade.calls": "count",
    "cascade.self_s": "s",
    **{f"cascade.{policy}.self_s": "s" for policy in ALL_POLICIES},
    "verdict_memo.hit_ratio": "ratio",
    "audit.self_s": "s",
    "diskcache.load.calls": "count",
    "diskcache.load.self_s": "s",
    "diskcache.store.self_s": "s",
    "diskcache.hit_ratio": "ratio",
    "farm.map_pages.s": "s",
    "farm.page_busy_s": "s",
    "farm.utilization": "ratio",
    "farm.tasks.stolen": "count",
    "farm.pages.split": "count",
    "farm.verdict.shared_hit_ratio": "ratio",
    "farm.image.shared_hit_ratio": "ratio",
    "farm.ast.shared_hit_ratio": "ratio",
    "ipc.page_bytes_total": "bytes",
    "server.invalidate.p50_s": "s",
    "server.analyze.p50_s": "s",
    "server.pages_reanalyzed_per_edit": "count",
    "server.replay_ratio": "ratio",
    "oracle.analyze.self_s": "s",
    "oracle.execute.self_s": "s",
    "oracle.check.self_s": "s",
    "oracle.hits": "count",
    "oracle.skipped_ratio": "ratio",
    "trace.overhead_frac": "ratio",
    "trace.coverage_frac": "ratio",
}


@dataclass
class Context:
    """One run's inputs and sizes; ``probes``, ``sessions`` and
    ``segments`` shrink, and ``apps`` changes, only in the smoke test."""

    seed: int
    seconds: float
    scratch: Path
    env: dict
    apps: tuple = APPS
    probes: int = 9
    sessions: int = 2
    segments: int = 3
    goldens: Goldens = field(default_factory=Goldens)


@dataclass
class Tally:
    """What an end-to-end run measured.  An operation is one pass over
    the apps (batch), one edit (daemon) or one fuzz page.  ``samples``
    holds, for each part of an operation, one ``(cpu_s, wall_s, scale)``
    per time it ran: one part per app and cold or warm run in a batch
    pass, the single part ``edit`` or ``page`` otherwise.  ``setup`` is
    already scaled."""

    setup: list = field(default_factory=list)
    samples: dict = field(default_factory=lambda: defaultdict(list))
    rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    rows: dict = field(default_factory=lambda: defaultdict(list))

    def record(self, ok: bool, what: str, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: FAILED {what} {detail[-2000:]}", file=sys.stderr)

    def sample(self, part: str, cpu_s: float, wall_s: float, scale: float) -> None:
        self.samples[part].append((cpu_s, wall_s, scale))

    def operation(self, value, average=statistics.median) -> float:
        """An operation's cost: ``value(cpu_s, wall_s, scale)`` averaged
        over each part's samples, summed over the parts."""
        return sum(
            average([value(*sample) for sample in samples])
            for samples in self.samples.values()
        )

    def metrics(self) -> dict[str, float]:
        """The end-to-end metrics.  Every time is scaled to the
        speedometer's nominal rate (see ``speedometer.py``)."""
        if not self.samples:
            return dict.fromkeys(E2E_UNITS, 0.0)
        return {
            "setup_s": statistics.median(self.setup) if self.setup else 0.0,
            "op_cpu_s": self.operation(lambda cpu, wall, scale: cpu * scale),
            "op_wall_s": self.operation(lambda cpu, wall, scale: wall * scale),
            "peak_rss_mb": self.rss_mb,
        }


# -- end-to-end workloads ----------------------------------------------------


def batch(ctx: Context, speedometer: Speedometer, farm: bool) -> Tally:
    """Rounds over the apps in seed order until ``seconds`` have passed
    (at least one round), so a run takes about as long on any host; a
    slow host gets fewer rounds."""
    tally = Tally()
    corpus = build_corpus(ctx.scratch / "corpus", ctx.apps)
    probes = StartupProbes([], ctx.env, ctx.probes, ctx.scratch, speedometer)
    flags = ["--jobs", str(farm_jobs() if farm else 1)]
    if farm:
        config = write_policy_config(ctx.scratch / "policies.yaml")
        flags += ["--policy-config", str(config)]
        runs = ["cold"]
    else:
        runs = ["cold", "warm"]
    order = random.Random(ctx.seed).sample(ctx.apps, len(ctx.apps))
    started = time.perf_counter()
    for number, app in ((n, app) for n in itertools.count() for app in order):
        progress = (time.perf_counter() - started) / ctx.seconds
        if number and progress >= 1:
            break
        root = corpus / app
        cache = ["--cache-dir", str(ctx.scratch / f"cache{number}" / app)]
        for run in runs:
            probes.at(progress)
            proc = run_process(
                [sys.executable, "-m", "repro.analysis.cli", str(root),
                 "--json", "--audit", *flags, *([] if farm else cache)],
                ctx.env, ctx.scratch, speedometer,
            )
            tally.record(
                proc.code in (0, 1, 3)
                and ctx.goldens.matches(app, root, proc.stdout, farm),
                f"{app} {run} run (exit {proc.code})", proc.stderr,
            )
            tally.sample(f"{app} {run}", proc.cpu_s, proc.wall_s, proc.scale)
            tally.rss_mb = max(tally.rss_mb, proc.rss_mb)
    tally.setup = probes.finish()
    return tally


def task_cpu_s(pid: int) -> float:
    """CPU seconds of every live thread of ``pid``, from schedstat's
    nanosecond counter (``/proc/<pid>/stat`` ticks are too coarse for a
    0.1 s edit)."""
    total = 0
    for task in Path(f"/proc/{pid}/task").iterdir():
        try:
            total += int((task / "schedstat").read_text().split()[0])
        except (FileNotFoundError, ProcessLookupError):
            continue  # the thread ended between listing and reading
    return total / 1e9


def process_cpu_s(pid: int) -> float:
    """user+sys seconds of ``pid`` since it started, threads that have
    ended included."""
    fields = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int) -> float:
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024
    return 0.0


def daemon_session(
    ctx: Context, tally: Tally, speedometer: Speedometer, corpus: Path,
    order: list, edits: list,
) -> None:
    """One daemon serving the apps in ``order``, then ``edits``."""
    from repro.server.client import ServerClient, ServerError

    start = speedometer.read()
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.analysis.cli", "serve",
         str(corpus / order[0]), "--port", "0", "--jobs", "1",
         "--log-level", "quiet"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env=ctx.env, cwd=common.ROOT, preexec_fn=speedometer.pin_child,
    )
    try:
        ready = json.loads(proc.stdout.readline())
        port = int(ready["listening"].rsplit(":", 1)[1])
        with ServerClient(port=port).connect(retry_seconds=10.0) as client:
            for app, ok in zip(order, load_tenants(client, corpus, order, ctx.goldens)):
                tally.record(ok, f"daemon cold analyze of {app}")
            tally.setup.append(process_cpu_s(proc.pid) * speedometer.scale_since(start))
            for path in edits:
                start, cpu = speedometer.read(), task_cpu_s(proc.pid)
                edit = edit_once(client, corpus, path, ctx.goldens)
                tally.sample(
                    "edit", task_cpu_s(proc.pid) - cpu, edit["latency_s"],
                    speedometer.scale_since(start),
                )
                tally.record(edit["ok"], f"edit of {path.relative_to(corpus)}")
                tally.rows["pages re-analyzed per edit"].append(edit["reanalyzed"])
            tally.rss_mb = max(tally.rss_mb, peak_rss_mb(proc.pid))
            client.shutdown()
        tally.record(proc.wait(timeout=60) == 0, "daemon shutdown")
    except (OSError, ValueError, KeyError, ServerError, subprocess.TimeoutExpired) as exc:
        tally.record(False, "daemon session", f"{type(exc).__name__}: {exc}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def daemon_edit(ctx: Context, speedometer: Speedometer) -> Tally:
    """``sessions`` daemons in turn, each with the apps resident in its
    own seed order, sharing the run's edits out between them."""
    tally = Tally()
    corpus = build_corpus(ctx.scratch / "corpus", ctx.apps)
    edits = edit_files(corpus, ctx.seed, ctx.seconds)
    rng = random.Random(ctx.seed)
    for session in range(ctx.sessions):
        daemon_session(
            ctx, tally, speedometer, corpus, rng.sample(ctx.apps, len(ctx.apps)),
            edits[session * len(edits) // ctx.sessions:
                  (session + 1) * len(edits) // ctx.sessions],
        )
    return tally


def fuzz_oracle(ctx: Context, speedometer: Speedometer) -> Tally:
    """The run's fuzz pages in ``segments`` fresh interpreters."""
    tally = Tally()
    probes = StartupProbes(["fuzz"], ctx.env, ctx.probes, ctx.scratch, speedometer)
    for segment, pages in enumerate(fuzz_pages(ctx.seed, ctx.seconds, ctx.segments)):
        probes.at(segment / ctx.segments)
        proc = run_process(
            [sys.executable, INPROC, "fuzz-oracle", "--pages", *map(str, pages),
             "--speedometer", *map(str, speedometer.files)],
            ctx.env, ctx.scratch, speedometer,
        )
        tally.rss_mb = max(tally.rss_mb, proc.rss_mb)
        if proc.code != 0:
            tally.record(False, f"fuzz segment {segment} (exit {proc.code})", proc.stderr)
            continue
        for page in last_json_line(proc.stdout)["pages"]:
            tally.record(page["divergences"] == 0, f"fuzz page seed {page['seed']}")
            tally.sample("page", page["cpu_s"], page["wall_s"], page["scale"])
            tally.rows["sink hits per page"].append(page["hits"])
    tally.setup = probes.finish()
    return tally


def end_to_end(ctx: Context, workload: str) -> Tally:
    """Run ``workload`` with its processes and speedometers on the
    measured CPUs: every CPU for ``batch-farm``, else one CPU, with this
    process moved to the others so that checking a document never
    competes with the program."""
    cpus = os.sched_getaffinity(0)
    measured = cpus if workload == "batch-farm" else {max(cpus)}
    os.sched_setaffinity(0, cpus - measured or cpus)
    try:
        with Speedometer(measured, ctx.scratch) as speedometer:
            if workload == "daemon-edit":
                return daemon_edit(ctx, speedometer)
            if workload == "fuzz-oracle":
                return fuzz_oracle(ctx, speedometer)
            return batch(ctx, speedometer, farm=workload == "batch-farm")
    finally:
        os.sched_setaffinity(0, cpus)


def print_rows(workload: str, tally: Tally) -> None:
    """Supporting rows: each part's samples as measured and the
    speedometer's scale, the operation's costs with means instead of
    medians, and the wall tail of parts sampled at least ten times."""
    print(f"{workload}: {tally.attempted} outputs checked")
    for part, samples in sorted(tally.samples.items()):
        cpu, wall, scale = zip(*samples)
        print(f"  {part}: {len(samples)} samples, median CPU "
              f"{statistics.median(cpu):.4g} s, wall {statistics.median(wall):.4g} s "
              f"as measured, scale {statistics.median(scale):.4g}")
        if len(samples) >= 10:
            scaled = [w * s for _, w, s in samples]
            p90 = quantile(scaled, 0.9)
            beyond = sum(value > p90 for value in scaled)
            print(f"  {part}: scaled wall p90 {p90:.4g} s, {beyond} samples beyond it")
    for name, value in (("CPU", lambda cpu, wall, scale: cpu * scale),
                        ("wall", lambda cpu, wall, scale: wall * scale)):
        print(f"  operation {name}, scaled, with means: "
              f"{tally.operation(value, statistics.fmean):.4g} s")
    for name, values in sorted(tally.rows.items()):
        print(f"  {name}: median {statistics.median(values):.4g} over {len(values)}")


# -- the traced run ----------------------------------------------------------


def share(counters: dict, hits: str, misses: str) -> float:
    total = counters.get(hits, 0) + counters.get(misses, 0)
    return counters.get(hits, 0) / total if total else 0.0


def layer_metrics(plain: dict, traced: dict) -> dict[str, float]:
    """Per-layer metrics: spans and timeline phases from the traced
    pass; program counters, farm page times and client-side request
    times from the untraced pass, so the tracing does not distort them
    (the timeline recorder switches off the farm's cascade splitting)."""
    calls = traced["spans"]["calls"]
    self_s = traced["spans"]["self_s"]
    positives = traced["spans"]["positives"]
    phases = traced["phases"]
    counters = plain["perf"]["counters"]
    timers = plain["perf"]["timers"]

    def ratio(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    metrics: dict[str, float] = {}
    for name in ("php.parse", "phase1", "image", "intersect", "prefilter",
                 "earley.membership", "cascade", "diskcache.load"):
        metrics[f"{name}.calls"] = calls.get(name, 0)
        metrics[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in ("audit", "diskcache.store", "oracle.analyze",
                 "oracle.execute", "oracle.check"):
        metrics[f"{name}.self_s"] = self_s.get(name, 0.0)
    metrics["include.self_s"] = phases.get("include", 0.0)
    metrics["absdom.self_s"] = phases.get("absdom", 0.0)
    for policy in ALL_POLICIES:
        metrics[f"cascade.{policy}.self_s"] = phases.get(f"cascade:{policy}", 0.0)
    metrics["prefilter.hit_ratio"] = ratio(positives.get("prefilter", 0), calls.get("prefilter", 0))
    metrics["diskcache.hit_ratio"] = ratio(
        positives.get("diskcache.load", 0), calls.get("diskcache.load", 0)
    )
    metrics["image.cache_hit_ratio"] = share(counters, "image.cache.hits", "image.cache.misses")
    metrics["verdict_memo.hit_ratio"] = share(
        counters, "policy.verdict_cache.hits", "policy.verdict_cache.misses"
    )

    fanout = timers.get("parallel.fanout", 0.0)
    busy = plain.get("page_busy_s", 0.0)
    metrics["farm.map_pages.s"] = fanout
    metrics["farm.page_busy_s"] = busy
    metrics["farm.utilization"] = ratio(busy, plain.get("jobs", 1) * fanout)
    metrics["farm.tasks.stolen"] = counters.get("farm.tasks.stolen", 0)
    metrics["farm.pages.split"] = counters.get("farm.pages.split", 0)
    for section in ("verdict", "image", "ast"):
        metrics[f"farm.{section}.shared_hit_ratio"] = share(
            counters, f"farm.{section}.shared_hits", f"farm.{section}.shared_misses"
        )
    metrics["ipc.page_bytes_total"] = counters.get("ipc.page_bytes_total", 0)

    edits = plain.get("edits", [])
    reanalyzed = sum(edit["reanalyzed"] for edit in edits)
    replayed = sum(edit["replayed"] for edit in edits)
    for request in ("invalidate", "analyze"):
        metrics[f"server.{request}.p50_s"] = (
            quantile([edit[f"{request}_s"] for edit in edits], 0.5) if edits else 0.0
        )
    metrics["server.pages_reanalyzed_per_edit"] = ratio(reanalyzed, len(edits))
    metrics["server.replay_ratio"] = ratio(replayed, replayed + reanalyzed)

    pages = plain.get("pages", [])
    metrics["oracle.hits"] = sum(page["hits"] for page in pages)
    metrics["oracle.skipped_ratio"] = ratio(
        sum(page["skipped"] for page in pages), sum(page["vectors"] for page in pages)
    )

    metrics["trace.overhead_frac"] = traced["wall_s"] / plain["wall_s"] - 1
    metrics["trace.coverage_frac"] = ratio(sum(self_s.values()), traced["wall_s"])
    return metrics


def traced_run(ctx: Context, workload: str) -> tuple[dict, int, int]:
    """``(per-layer metrics, attempted, failed)`` of an untraced and a
    traced in-process pass over the same inputs."""
    seconds = ctx.seconds / 2
    command = [sys.executable, INPROC, workload, "--seed", str(ctx.seed),
               "--seconds", str(seconds), "--apps", *ctx.apps]
    if workload == "fuzz-oracle":
        (pages,) = fuzz_pages(ctx.seed, seconds, 1)
        command += ["--pages", *map(str, pages)]

    def in_process(*extra: str) -> dict | None:
        proc = run_process(command + list(extra), ctx.env, ctx.scratch)
        if proc.code != 0:
            print(f"perfbench: FAILED {workload} pass: {proc.stderr[-2000:]}",
                  file=sys.stderr)
            return None
        return last_json_line(proc.stdout)

    plain = in_process()
    traced = plain and in_process("--trace")
    if not traced:
        return dict.fromkeys(LAYER_UNITS, 0.0), 1, 1
    return (
        layer_metrics(plain, traced),
        plain["attempted"] + traced["attempted"],
        plain["failed"] + traced["failed"],
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog="\n".join(__doc__.splitlines()[1:]),
    )
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    common.require_checkout()
    # a fresh checkout has no bytecode yet; an installed program would
    compileall.compile_dir(common.SRC, quiet=1)
    # a terminated run still stops its children and removes its scratch
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    common.WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="run-", dir=common.WORK))
    ctx = Context(
        args.seed, args.seconds, scratch, common.child_env(scratch),
        apps=DAEMON_APPS if args.workload == "daemon-edit" else APPS,
    )
    try:
        if args.trace:
            metrics, attempted, failed = traced_run(ctx, args.workload)
            units = LAYER_UNITS
        else:
            tally = end_to_end(ctx, args.workload)
            print_rows(args.workload, tally)
            metrics, attempted, failed = tally.metrics(), tally.attempted, tally.failed
            units = E2E_UNITS
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_IGN)  # let the clean-up finish
        common.stop_tree(os.getpid())
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result(metrics, units, attempted, failed)))
    return 0 if failed == 0 else 1


def result(metrics: dict, units: dict, attempted: int, failed: int) -> dict:
    """The run's last stdout line."""
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }


if __name__ == "__main__":
    sys.exit(main())
