"""Checkout layout, workload inputs, golden checks and child-process
measurement shared by ``run.py`` and ``inproc.py``.

The benchmark measures the program in the checkout it sits in: the
analyzer under ``src/`` and the byte-identity goldens under
``tests/analysis/``.  Everything it writes goes under ``.bench_work/``
(removed when a run ends) and ``.bench_out/`` (span dumps of traced
runs), both inside the checkout.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import signal
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from speedometer import Speedometer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

#: the paper's five subject applications, by corpus directory name
APPS = (
    "e107",
    "eve_activity_tracker",
    "tiger_php_news",
    "utopia_news_pro",
    "warp_cms",
)
#: what ``daemon-edit`` serves: e107 holds 741 of the corpus's 832 PHP
#: files, so it is where edits land; the other apps only lengthened each
#: daemon set-up by about 6 s
DAEMON_APPS = ("e107",)
#: every registered sink policy, as ``batch-farm`` enables them
ALL_POLICIES = ("sql", "xss", "xss-context", "shell", "eval", "path")
#: golden ``--json`` documents: SQL-only, and with every policy enabled
GOLDEN_DIRS = {
    False: ROOT / "tests" / "analysis" / "golden",
    True: ROOT / "tests" / "analysis" / "golden_policies",
}

#: daemon edits per --seconds.  The edits are a fixed set and the seed
#: only orders them: edit targets drawn by seed made the tail metrics
#: vary more between seeds than the regressions they must catch.  An
#: e107 edit takes 0.17-0.35 s on a 2-core machine.
EDITS_PER_SECOND = 2.5
#: fuzz pages per --seconds, as for edits a fixed set the seed orders
FUZZ_PAGES_PER_SECOND = 7
#: fuzz pages come from page seeds 0..99: the oracle passes all of them
#: at the commit that introduced the benchmark, while random page seeds
#: hit a verdict divergence every few hundred pages (779332529 is one),
#: and page seed 113 alone runs for about a minute
FUZZ_POOL = 100


def require_checkout() -> None:
    """Exit non-zero unless this checkout holds the program and its
    goldens, then make ``import repro`` resolve to this checkout's
    ``src/`` (never to an installed copy)."""
    needed = [SRC / "repro" / "__init__.py"] + [
        directory / f"{app}.json"
        for directory in GOLDEN_DIRS.values()
        for app in APPS
    ]
    for path in needed:
        if not path.is_file():
            raise SystemExit(
                f"perfbench: {path.relative_to(ROOT)} is missing; "
                "run from the root of a full checkout"
            )
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))


def child_env(tmpdir: Path) -> dict[str, str]:
    """Environment for every process the benchmark starts: the program
    from this checkout, temporary files inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmpdir)
    return env


def document_text(document: dict) -> str:
    """A ``--json`` document exactly as the CLI prints it."""
    return json.dumps(document, indent=2) + "\n"


class Goldens:
    """Byte-for-byte comparison against the checked-in goldens, after
    the same ``<ROOT>`` substitution the golden tests apply."""

    def __init__(self) -> None:
        self._texts: dict[tuple[str, bool], str] = {}

    def matches(
        self, app: str, root: Path, text: str, all_policies: bool
    ) -> bool:
        key = (app, all_policies)
        if key not in self._texts:
            self._texts[key] = (
                GOLDEN_DIRS[all_policies] / f"{app}.json"
            ).read_text()
        return text.replace(str(root), "<ROOT>") == self._texts[key]


def build_corpus(target: Path, apps) -> Path:
    """Write the corpus applications under ``target``; returns it."""
    from repro.corpus import build_app

    target.mkdir(parents=True, exist_ok=True)
    for app in apps:
        build_app(target, app)
    return target


def write_policy_config(target: Path) -> Path:
    target.write_text(f"policies: [{', '.join(ALL_POLICIES)}]\n")
    return target


def farm_jobs() -> int:
    """What ``batch-farm`` runs at: ``min(4, nproc)`` workers."""
    return min(4, len(os.sched_getaffinity(0)))


def fuzz_pages(seed: int, seconds: float, segments: int) -> list[list[int]]:
    """Page seeds for ``run_fuzz``, dealt to ``segments`` processes by
    page seed, the processes in seed order.  A process's pages and their
    order do not depend on the seed, because its peak RSS and each
    page's cost depend on what ran before in the process: with the
    pages shuffled by seed, peak RSS spread by 8-11% between runs."""
    count = min(FUZZ_POOL, max(1, round(FUZZ_PAGES_PER_SECOND * seconds)))
    shares = [list(range(first, count, segments)) for first in range(segments)]
    random.Random(seed).shuffle(shares)
    return [share for share in shares if share]


# -- the daemon edit loop ----------------------------------------------------


def edit_files(corpus: Path, seed: int, seconds: float) -> list[Path]:
    """The files to edit, in seed order: evenly spaced over all sorted
    ``.php`` files of the corpus, so each app is edited in proportion to
    its size.  An equal share per app was tried and dropped: per-edit
    latencies then form one cluster per app, and both p50 and p90 fell
    between clusters and doubled their spread."""
    files = sorted(corpus.rglob("*.php"))
    count = min(len(files), max(1, round(EDITS_PER_SECOND * seconds)))
    chosen = [files[i * len(files) // count] for i in range(count)]
    random.Random(seed).shuffle(chosen)
    return chosen


def toggle_trailing_newline(path: Path) -> None:
    """A verdict-preserving edit: add or drop one newline at end of
    file, which moves no hotspot line."""
    data = path.read_bytes()
    path.write_bytes(data[:-1] if data.endswith(b"\n\n") else data + b"\n")


def load_tenants(client, corpus: Path, order, goldens: Goldens) -> list[bool]:
    """Make every app after the daemon's default project resident, then
    analyze each cold; one golden verdict per app."""
    for app in order[1:]:
        client.load_project(corpus / app, name=app)
    return [
        goldens.matches(
            app, corpus / app,
            document_text(client.analyze(project=app)["document"]), False,
        )
        for app in order
    ]


def edit_once(client, corpus: Path, path: Path, goldens: Goldens) -> dict:
    """Edit one file, then time ``invalidate`` + ``analyze`` of its app."""
    rel = path.relative_to(corpus)
    app, page = rel.parts[0], Path(*rel.parts[1:]).as_posix()
    toggle_trailing_newline(path)
    started = time.perf_counter()
    client.invalidate([page], project=app)
    middle = time.perf_counter()
    response = client.analyze(project=app)
    finished = time.perf_counter()
    return {
        "ok": goldens.matches(
            app, corpus / app, document_text(response["document"]), False
        ),
        "latency_s": finished - started,
        "invalidate_s": middle - started,
        "analyze_s": finished - middle,
        "reanalyzed": response["pages_reanalyzed"],
        "replayed": response["pages_replayed"],
    }


# -- measured child processes ------------------------------------------------


@dataclass
class Proc:
    """One finished child process and what it cost.  ``scale`` turns its
    times into times at the speedometer's nominal rate (1.0 when it ran
    without a speedometer)."""

    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float
    stdout: str
    stderr: str
    scale: float = 1.0


def _state_and_parent(stat: Path) -> tuple[str, int] | None:
    """A process's state letter and parent pid, or None once it is gone."""
    try:
        state, ppid = stat.read_text().rsplit(")", 1)[1].split()[:2]
    except (OSError, ValueError):
        return None
    return state, int(ppid)


def _alive(pid: int) -> bool:
    found = _state_and_parent(Path(f"/proc/{pid}/stat"))
    return found is not None and found[0] != "Z"


def _live_children() -> dict[int, list[int]]:
    """Pids of live (not zombie) processes by parent pid."""
    children: dict[int, list[int]] = defaultdict(list)
    for stat in Path("/proc").glob("[0-9]*/stat"):
        found = _state_and_parent(stat)
        if found is not None and found[0] != "Z":
            children[found[1]].append(int(stat.parent.name))
    return children


def stop_tree(root: int, timeout: float = 10.0) -> None:
    """Kill every live descendant of ``root``, and ``root`` itself unless
    it is this process, until none is left; then reap those that are this
    process's children.  Killing only a child would leave its farm
    workers running, and a run interrupted while it starts a child has
    no handle on that child yet."""
    killed: set[int] = set()
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        children = _live_children()
        tree = [root] if root != os.getpid() and _alive(root) else []
        queue = [root]
        while queue:
            found = children.get(queue.pop(), [])
            tree += found
            queue += found
        if not tree:
            break
        for pid in tree:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
        killed.update(tree)
        time.sleep(0.02)
    for pid in killed:
        with contextlib.suppress(ChildProcessError):
            os.waitpid(pid, 0)


def run_process(
    cmd: list[str], env: dict, scratch: Path,
    speedometer: Speedometer | None = None,
) -> Proc:
    """Run ``cmd`` to completion; CPU time and peak RSS come from
    ``wait4`` and so include every descendant the child reaped (farm
    workers, the memo manager).  With a ``speedometer``, the child runs
    on its CPUs and ``scale`` comes from its rate meanwhile."""
    out_path, err_path = scratch / "child.stdout", scratch / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = speedometer.read() if speedometer else None
        started = time.perf_counter()
        proc = subprocess.Popen(
            cmd, stdout=out, stderr=err, env=env, cwd=ROOT,
            preexec_fn=speedometer.pin_child if speedometer else None,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            stop_tree(proc.pid)
            proc.wait()
            raise
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Proc(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024,
        stdout=out_path.read_text(),
        stderr=err_path.read_text(errors="replace"),
        scale=speedometer.scale_since(start) if speedometer else 1.0,
    )


def last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def quantile(values: list[float], q: float) -> float:
    """Linear-interpolation quantile (numpy's default), defined for one
    sample too."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


class StartupProbes:
    """Scaled CPU seconds of the CLI starting in a fresh interpreter
    (``sqlciv [subcommand] --help``), the ``setup_s`` of the workloads
    that start a process per operation.  The ``count`` samples are
    spread over a run rather than taken back to back, so a burst of
    noise touches few of them."""

    def __init__(
        self, subcommand: list[str], env: dict, count: int, scratch: Path,
        speedometer: Speedometer,
    ) -> None:
        self.command = [sys.executable, "-m", "repro.analysis.cli", *subcommand, "--help"]
        self.env = env
        self.count = count
        self.scratch = scratch
        self.speedometer = speedometer
        self.samples: list[float] = []

    def at(self, progress: float) -> None:
        """Probe if the run, ``progress`` (0 to 1) of the way through,
        is due another sample."""
        if len(self.samples) < min(self.count, 1 + (self.count - 1) * progress):
            self._probe()

    def finish(self) -> list[float]:
        """All ``count`` samples, probing for any not yet taken."""
        while len(self.samples) < self.count:
            self._probe()
        return self.samples

    def _probe(self) -> None:
        proc = run_process(self.command, self.env, self.scratch, self.speedometer)
        if proc.code != 0:
            raise subprocess.CalledProcessError(proc.code, self.command, stderr=proc.stderr)
        self.samples.append(proc.cpu_s * proc.scale)
