"""Disk-cache size capping: ``--cache-max-mb`` prunes least-recently-
used entries (by refreshed atime) and never changes cached semantics."""

import os
import pickle
import time
from pathlib import Path

import pytest

from repro.analysis.analyzer import PageResult
from repro.corpus import build_app
from repro.obs.metrics import PERF
from repro.analysis.diskcache import DiskCache


def fill(cache: DiskCache, kind: str, count: int, payload_bytes: int = 4096):
    keys = []
    for index in range(count):
        key = f"{kind}key{index:04d}"
        cache.store(kind, key, b"x" * payload_bytes)
        keys.append(key)
    return keys


def entry_count(cache_dir: Path) -> int:
    return sum(
        1 for kind in ("ast", "page")
        for _ in (cache_dir / kind).glob("*.pkl")
    )


def total_bytes(cache_dir: Path) -> int:
    return sum(
        path.stat().st_size
        for kind in ("ast", "page")
        for path in (cache_dir / kind).glob("*.pkl")
    )


def set_atime(cache: DiskCache, kind: str, key: str, when: float) -> None:
    os.utime(cache._path(kind, key), (when, when))


class TestUncapped:
    def test_no_cap_never_prunes(self, tmp_path):
        cache = DiskCache(tmp_path)
        fill(cache, "ast", 50)
        assert cache.prune() == 0
        assert entry_count(tmp_path) == 50


class TestCapped:
    def test_prune_enforces_the_byte_cap(self, tmp_path):
        cache = DiskCache(tmp_path, max_mb=0.05)  # ~51 KiB
        fill(cache, "ast", 30, payload_bytes=4096)
        cache.prune()
        assert total_bytes(tmp_path) <= cache.max_bytes
        assert entry_count(tmp_path) < 30

    def test_least_recently_used_entries_go_first(self, tmp_path):
        cache = DiskCache(tmp_path, max_mb=0.02)  # ~20 KiB: holds < 6 entries
        keys = fill(cache, "ast", 6, payload_bytes=4096)
        now = time.time()
        # oldest → newest: key0 … key5
        for rank, key in enumerate(keys):
            set_atime(cache, "ast", key, now - 1000 + rank)
        removed = cache.prune()
        assert removed >= 1
        survivors = {p.stem for p in (tmp_path / "ast").glob("*.pkl")}
        # the newest entry always survives; evictions start at the oldest
        assert keys[-1] in survivors
        evicted = [key for key in keys if key not in survivors]
        assert evicted == keys[: len(evicted)]

    def test_load_refreshes_atime_so_hits_are_protected(self, tmp_path):
        cache = DiskCache(tmp_path, max_mb=0.02)
        keys = fill(cache, "ast", 6, payload_bytes=4096)
        stale = time.time() - 1000
        for key in keys:
            set_atime(cache, "ast", key, stale)
        assert cache.load("ast", keys[0]) is not None  # refreshes atime
        cache.prune()
        survivors = {p.stem for p in (tmp_path / "ast").glob("*.pkl")}
        assert keys[0] in survivors

    def test_prune_spans_both_kinds(self, tmp_path):
        cache = DiskCache(tmp_path, max_mb=0.02)
        fill(cache, "ast", 4, payload_bytes=4096)
        fill(cache, "page", 4, payload_bytes=4096)
        cache.prune()
        assert total_bytes(tmp_path) <= cache.max_bytes

    def test_eviction_counter_is_recorded(self, tmp_path):
        PERF.reset()
        cache = DiskCache(tmp_path, max_mb=0.01)
        fill(cache, "ast", 8, payload_bytes=4096)
        cache.prune()
        assert PERF.snapshot()["counters"].get("disk.evictions", 0) >= 1

    def test_init_prunes_an_oversized_preexisting_cache(self, tmp_path):
        fill(DiskCache(tmp_path), "ast", 30, payload_bytes=4096)
        capped = DiskCache(tmp_path, max_mb=0.02)
        assert total_bytes(tmp_path) <= capped.max_bytes

    def test_capped_and_uncapped_caches_share_entries(self, tmp_path):
        DiskCache(tmp_path).store("ast", "shared", {"tree": 1})
        capped = DiskCache(tmp_path, max_mb=10.0)
        assert capped.load("ast", "shared") == {"tree": 1}

    def test_store_triggers_amortized_prune(self, tmp_path):
        # cap small enough that 64 KiB of stores crosses the amortization
        # threshold without an explicit prune() call
        cache = DiskCache(tmp_path, max_mb=0.01)  # ~10 KiB cap
        fill(cache, "ast", 40, payload_bytes=4096)
        assert total_bytes(tmp_path) <= cache.max_bytes + 70 * 1024


class TestCliFlag:
    def test_cache_max_mb_flag_keeps_results_identical(self, tmp_path, capsys):
        from repro.analysis.cli import main

        app = tmp_path / "app"
        app.mkdir()
        (app / "a.php").write_text(
            "<?php mysql_query(\"SELECT * FROM t WHERE x = '\" "
            ". $_GET['x'] . \"'\"); ?>"
        )
        cache = tmp_path / "cache"
        uncapped = main([str(app), "--json", "--cache-dir", str(cache)])
        plain = capsys.readouterr().out
        capped = main([
            str(app), "--json", "--cache-dir", str(cache),
            "--cache-max-mb", "64",
        ])
        capped_out = capsys.readouterr().out
        assert capped == uncapped
        assert capped_out == plain


class TestDamagedEntries:
    """Truncated or wrong-typed pickles in ``page/`` and ``ast/`` are
    misses: the document equals a run without any cache, byte for byte."""

    @staticmethod
    def run(capsys, app, *extra):
        from repro.analysis.cli import main

        code = main([str(app), "--json", "--audit", *extra])
        return code, capsys.readouterr().out

    @pytest.mark.parametrize("kind", ["page", "ast"])
    @pytest.mark.parametrize(
        "damage", ["truncated", "empty", "int", "dict", "pair-of-str"]
    )
    def test_damaged_entry_reads_as_a_miss(self, tmp_path, capsys, kind, damage):
        build_app(tmp_path, "eve_activity_tracker")
        app = tmp_path / "eve_activity_tracker"
        cache = tmp_path / "cache"
        plain = self.run(capsys, app)
        assert self.run(capsys, app, "--cache-dir", str(cache)) == plain
        entries = sorted((cache / kind).glob("*.pkl"))
        assert entries
        for path in entries:
            data = path.read_bytes()
            if damage == "truncated":
                path.write_bytes(data[: len(data) // 2])
            elif damage == "empty":
                path.write_bytes(b"")
            else:
                wrong = {"int": 7, "dict": {"page": "x"}, "pair-of-str": ("x", "y")}
                path.write_bytes(pickle.dumps(wrong[damage]))
        if kind == "ast":
            # whole-page hits would never read the trees
            for path in (cache / "page").glob("*.pkl"):
                path.unlink()
        assert self.run(capsys, app, "--cache-dir", str(cache)) == plain
        # the damaged entries were overwritten with good ones
        good = PageResult if kind == "page" else tuple
        for path in entries:
            assert isinstance(pickle.loads(path.read_bytes()), good)
