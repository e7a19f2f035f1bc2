"""Throughput benchmark for the differential soundness fuzzer.

Measures, for a fixed seed and iteration budget, how the fuzz loop's
wall-clock divides between its four stages —

* ``generate``  — sampling the page + input vectors,
* ``analyze``   — the abstract interpreter (phase 1 and the hotspot
  grammars; no verdicts yet),
* ``execute``   — concrete interpretation of every vector, on the
  analysis's parsed trees,
* ``check``     — membership and verdict cross-checks of every hit; the
  verdict cascades run here, lazily, on the first hit at each site

— matching perfbench's ``oracle.analyze`` / ``oracle.execute`` /
``oracle.check`` spans, and reports pages/second and sink-hits/second.
The numbers bound how large a CI iteration budget can be
(``.github/workflows``): the smoke job runs 150 iterations, the nightly
budget is derived from the pages/second figure here.

Writes ``BENCH_fuzz.json`` at the repository root.

Usage::

    python benchmarks/fuzz_throughput.py [--iterations N] [--seed S]
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.corpus.generator import generate_fuzz_page  # noqa: E402
from repro.oracle.differ import PageOracle  # noqa: E402
from repro.oracle.fuzz import sample_vector  # noqa: E402
from repro.oracle.interp import UnsupportedConstruct, execute_page  # noqa: E402


def run_benchmark(iterations: int, seed: int, vectors_per_page: int) -> dict:
    rng = random.Random(seed)
    timings = {"generate": 0.0, "analyze": 0.0, "execute": 0.0, "check": 0.0}
    hits = 0
    divergences = 0
    skipped = 0
    started = time.perf_counter()
    for _ in range(iterations):
        workdir = Path(tempfile.mkdtemp(prefix="sqlciv-fuzz-bench-"))
        try:
            begin = time.perf_counter()
            entry = generate_fuzz_page(workdir, rng)
            vectors = [sample_vector(rng) for _ in range(vectors_per_page)]
            timings["generate"] += time.perf_counter() - begin

            begin = time.perf_counter()
            oracle = PageOracle(workdir, entry)
            timings["analyze"] += time.perf_counter() - begin

            for vector in vectors:
                begin = time.perf_counter()
                try:
                    page_hits = execute_page(
                        workdir, entry, vector, trees=oracle.result.trees
                    )
                except UnsupportedConstruct:
                    skipped += 1
                    continue
                finally:
                    timings["execute"] += time.perf_counter() - begin
                hits += len(page_hits)
                begin = time.perf_counter()
                for hit in page_hits:
                    divergences += len(oracle.check_hit(hit, vector))
                timings["check"] += time.perf_counter() - begin
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    elapsed = time.perf_counter() - started
    return {
        "iterations": iterations,
        "seed": seed,
        "vectors_per_page": vectors_per_page,
        "elapsed_s": round(elapsed, 3),
        "pages_per_s": round(iterations / elapsed, 2),
        "hits": hits,
        "hits_per_s": round(hits / elapsed, 2),
        "skipped_vectors": skipped,
        "divergences": divergences,
        "stage_s": {stage: round(value, 3) for stage, value in timings.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--iterations", type=int, default=50)
    parser.add_argument("--seed", type=int, default=1337)
    parser.add_argument("--vectors-per-page", type=int, default=4)
    options = parser.parse_args(argv)
    result = run_benchmark(
        options.iterations, options.seed, options.vectors_per_page
    )
    out = ROOT / "BENCH_fuzz.json"
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result, indent=2))
    print(f"wrote {out}")
    return 1 if result["divergences"] else 0


if __name__ == "__main__":
    raise SystemExit(main())
