"""How fast the host runs Python at the moment, measured on the same CPUs
and in the same milliseconds as the program under test.

This benchmark runs on VMs that share their cores with other tenants.
There the same pure-Python work takes up to twice as long in one second
as in the next, in CPU time as well as wall time (the slowdown is
contention for the shared core, not steal the guest can subtract), and
the speed swings on a scale of 0.1 to 1 s.  A calibration program run
between the measured processes therefore samples other moments than the
ones it is meant to correct, and leaves most of the noise in place.

A speedometer is a process pinned to one CPU at a low priority
(``NICE``) that loops a fixed pure-Python work unit and publishes, after
each unit, how many units it has done and its own CPU time.  A measured
process pinned to the same CPU time-slices with it a few milliseconds at
a time and gets about nine tenths of the CPU, so the speedometer's units
per CPU second over the process's lifetime gauge how fast that CPU ran
for both.  ``run.py`` multiplies each CPU time it measures by that rate
÷ ``NOMINAL_RATE``: the result reads as CPU seconds on a host where the
speedometer does ``NOMINAL_RATE`` units a second.  For a 0.2 s
pure-Python program, this cut the spread of 30 runs from 24% to 3% of
the median on a 2-core VM.

The speedometer imports nothing from the checkout, so no change to the
program moves its rate except through what the two share: the CPU's
caches, which a measured program that uses more memory pollutes more.

Run by ``Speedometer``, never by hand: ``python -I speedometer.py FILE``.
"""

from __future__ import annotations

import mmap
import os
import random
import re
import struct
import subprocess
import sys
import time
from pathlib import Path

#: units per CPU second of one speedometer on a 2-core VM at its
#: typical speed; only sets the scale the scaled times read in
NOMINAL_RATE = 12000.0
#: the speedometer's nice value: it takes about a tenth of a CPU it
#: shares with a measured process, and all of it when the CPU is idle
NICE = 10
#: the fewest units a rate is computed from; a shorter window is
#: extended by waiting after the measured process ends
MIN_UNITS = 50
#: the published counters: units done, CPU nanoseconds at that moment
COUNTERS = struct.Struct("qq")

_rng = random.Random(20070610)
KEYS = [frozenset((_rng.randrange(64), _rng.randrange(64))) for _ in range(120)]
SOURCE = " ".join(
    _rng.choice(["$id", "query", "'a'", ".", "(", ")", "42"]) for _ in range(40)
)
TOKEN = re.compile(r"\s*(?:(\$?\w+)|('[^']*')|(.))")


def work_unit() -> int:
    """About 70 µs of what the analyzer spends its time on: hashing
    frozensets into dicts, regex tokenizing into tuples, building
    strings."""
    table: dict[frozenset, int] = {}
    for key in KEYS:
        table[key] = table.get(key, 0) + 1
    tokens = [(m.lastindex, m.group(m.lastindex)) for m in TOKEN.finditer(SOURCE)]
    return len(table) + len(tokens) + len("".join(map(str, table.values())))


def spin(path: str) -> None:
    """Loop work units until killed, publishing the counters to ``path``."""
    fd = os.open(path, os.O_RDWR)
    with mmap.mmap(fd, COUNTERS.size) as counters:
        os.close(fd)
        units = 0
        while True:
            work_unit()
            units += 1
            COUNTERS.pack_into(counters, 0, units, time.process_time_ns())


def pin(cpus: set[int]) -> None:
    os.sched_setaffinity(0, cpus)


class Gauge:
    """Reads the counters of running speedometers, from the process that
    started them or from a measured process given their ``files``."""

    def __init__(self, files: list[Path]) -> None:
        self.files = list(files)
        self._maps: list[mmap.mmap] = []
        for path in self.files:
            with open(path, "rb") as published:
                self._maps.append(mmap.mmap(
                    published.fileno(), COUNTERS.size, prot=mmap.PROT_READ
                ))

    def read(self) -> tuple[int, int]:
        """Units done and CPU nanoseconds spent, summed over the CPUs.  A
        read can straddle one unit's update, an error of one unit."""
        units = cpu_ns = 0
        for counters in self._maps:
            done, spent = COUNTERS.unpack_from(counters, 0)
            units += done
            cpu_ns += spent
        return units, cpu_ns

    def rate_since(self, start: tuple[int, int]) -> float:
        """Units per CPU second from ``start`` to now, waiting until at
        least ``MIN_UNITS`` units per CPU are done."""
        deadline = time.monotonic() + 10
        while True:
            units, cpu_ns = self.read()
            if units - start[0] >= len(self._maps) * MIN_UNITS:
                return (units - start[0]) / ((cpu_ns - start[1]) / 1e9)
            if time.monotonic() > deadline:
                raise RuntimeError("perfbench: a speedometer stopped")
            time.sleep(0.001)

    def scale_since(self, start: tuple[int, int]) -> float:
        """The factor that turns CPU seconds measured since ``start``
        into CPU seconds at ``NOMINAL_RATE``."""
        return self.rate_since(start) / NOMINAL_RATE

    def close(self) -> None:
        for counters in self._maps:
            counters.close()


class Speedometer(Gauge):
    """One speedometer process per CPU in ``cpus``, publishing to files
    in ``directory``; the processes it measures are pinned to those CPUs
    (``pin_child``)."""

    def __init__(self, cpus: set[int], directory: Path) -> None:
        self.cpus = set(cpus)
        self._procs: list[subprocess.Popen] = []
        files = [directory / f"speedometer-cpu{cpu}" for cpu in sorted(self.cpus)]
        for path in files:
            path.write_bytes(bytes(COUNTERS.size))
        super().__init__(files)
        try:
            for cpu, path in zip(sorted(self.cpus), files):
                self._procs.append(subprocess.Popen(
                    [sys.executable, "-I", str(Path(__file__).resolve()), str(path)],
                    stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                    preexec_fn=lambda cpu=cpu: (pin({cpu}), os.nice(NICE)),
                ))
            deadline = time.monotonic() + 30
            while any(
                COUNTERS.unpack_from(counters, 0)[0] < MIN_UNITS
                for counters in self._maps
            ):
                if time.monotonic() > deadline or any(
                    proc.poll() is not None for proc in self._procs
                ):
                    raise RuntimeError("perfbench: a speedometer did not start")
                time.sleep(0.01)
        except BaseException:
            self.close()
            raise

    def pin_child(self) -> None:
        """``preexec_fn`` for a measured process."""
        pin(self.cpus)

    def close(self) -> None:
        for proc in self._procs:
            proc.kill()
            proc.wait()
        super().close()

    def __enter__(self) -> "Speedometer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    spin(sys.argv[1])
