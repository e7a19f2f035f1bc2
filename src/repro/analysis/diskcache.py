"""On-disk content-addressed caches (the CLI's ``--cache-dir``).

Two stores, both keyed by content hashes salted with
:data:`ANALYZER_CACHE_VERSION` (bumping the version orphans every old
entry, so semantics changes can never replay stale results):

* ``ast/`` — parsed :class:`repro.php.ast.File` trees (or the parse
  error), keyed by the SHA-256 of the file's bytes.  Survives edits to
  *other* files: only the changed file reparses.
* ``page/`` — whole per-page analysis results
  (:class:`repro.analysis.analyzer.PageResult`), keyed by the page path
  **plus a hash of every resolver-visible file in the project**.  A
  page's result depends not just on its own include closure but on the
  project layout itself (dynamic include resolution intersects the
  include argument's language with the set of on-disk paths, paper §4),
  so any file change conservatively invalidates all page entries —
  repeat runs over an unchanged corpus are near-instant, and a changed
  corpus can never serve a stale verdict.

Entries are pickles written atomically (tmp file + rename); a corrupt or
unreadable entry is treated as a miss, never an error.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
from pathlib import Path

from repro.obs.metrics import PERF

log = logging.getLogger(__name__)

#: Bump when an analysis-semantics change invalidates cached results
#: (on-disk ASTs / page reports keyed by content hash + this version).
#: "7": tokens and AST nodes carry byte spans for the remediation
#: engine — older span-less pickles must not be replayed.
#: "8": ``query_samples`` are the shortest strings of L(query), not the
#: first a breadth-first walk completes — stored page results and
#: verdict entries must not replay the old samples.
#: "9": witnesses, example queries and provenance ``before`` samples
#: are shortest-first, and a sanitizer's ``after`` is its transducer's
#: output on ``before`` — stored reports must not replay the old ones.
#: "10": AST and regex nodes are plain classes, no longer dataclasses —
#: ``ast/`` entries pickled from the old classes are not reused.
ANALYZER_CACHE_VERSION = "10"

#: extensions the include resolver scans — part of the project state
RESOLVER_EXTENSIONS = (".php", ".inc", ".html", ".tpl")


def content_hash(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def project_state_hash(project_root: str | Path) -> str:
    """Hash of every resolver-visible file's (relative path, content).

    This is the conservative dependency key for per-page results: it
    changes when any file an analysis *could* observe changes — content
    of any include candidate, or the file layout the dynamic-include
    resolver treats as part of the specification.
    """
    root = Path(project_root)
    digest = hashlib.sha256(ANALYZER_CACHE_VERSION.encode())
    entries = []
    for dirpath, _dirnames, filenames in os.walk(root):
        for filename in filenames:
            if filename.endswith(RESOLVER_EXTENSIONS):
                path = Path(dirpath) / filename
                entries.append(path)
    for path in sorted(entries):
        rel = path.relative_to(root).as_posix()
        try:
            data = path.read_bytes()
        except OSError:
            data = b"<unreadable>"
        digest.update(rel.encode("utf-8", errors="replace"))
        digest.update(b"\0")
        digest.update(content_hash(data).encode())
        digest.update(b"\0")
    return digest.hexdigest()


class DiskCache:
    """A directory of pickled cache entries, organized by kind.

    ``max_mb`` (the CLI's ``--cache-max-mb``) caps the cache's total
    size: when the cap is exceeded the least-recently-*used* entries are
    pruned (LRU by atime — every hit refreshes the entry's atime
    explicitly, so the policy holds even on ``noatime`` mounts).  A
    long-lived analysis daemon can then keep one cache directory forever
    without it growing without bound.  The on-disk layout is unchanged
    from the uncapped cache — capped and uncapped runs share entries.
    """

    def __init__(self, cache_dir: str | Path, max_mb: float | None = None) -> None:
        self.root = Path(cache_dir)
        self.max_bytes = int(max_mb * 1024 * 1024) if max_mb else None
        self._stored_since_prune = 0
        for kind in ("ast", "page"):
            (self.root / kind).mkdir(parents=True, exist_ok=True)
        if self.max_bytes is not None:
            self.prune()

    def _path(self, kind: str, key: str) -> Path:
        return self.root / kind / f"{key}.pkl"

    def load(self, kind: str, key: str):
        """The stored object, or None on miss/corruption (counted)."""
        path = self._path(kind, key)
        try:
            with open(path, "rb") as handle:
                value = pickle.load(handle)
                try:
                    PERF.incr("disk.bytes_read", os.fstat(handle.fileno()).st_size)
                except OSError:
                    pass
        except (OSError, pickle.UnpicklingError, EOFError, AttributeError,
                ImportError, IndexError):
            PERF.incr(f"disk.{kind}.misses")
            log.debug("disk cache miss: %s/%s", kind, key[:16])
            return None
        try:
            # mark the entry recently-used for LRU pruning, even on
            # mounts where reads don't update atime
            os.utime(path)
        except OSError:
            pass
        PERF.incr(f"disk.{kind}.hits")
        log.debug("disk cache hit: %s/%s", kind, key[:16])
        return value

    def store(self, kind: str, key: str, value) -> None:
        path = self._path(kind, key)
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        try:
            with open(tmp, "wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
                PERF.incr("disk.bytes_written", handle.tell())
            os.replace(tmp, path)
            PERF.incr(f"disk.{kind}.stores")
        except (OSError, pickle.PicklingError) as exc:
            PERF.incr(f"disk.{kind}.store_errors")
            log.warning("disk cache store failed for %s/%s: %s",
                        kind, key[:16], exc)
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
            return
        if self.max_bytes is not None:
            try:
                self._stored_since_prune += path.stat().st_size
            except OSError:
                pass
            # amortize the directory walk: prune after writing ~1/16 of
            # the cap (but at least 64 KiB) rather than on every store
            if self._stored_since_prune >= max(self.max_bytes // 16, 65536):
                self.prune()

    def prune(self) -> int:
        """Evict least-recently-used entries until the cache fits
        ``max_bytes``; returns how many entries were removed."""
        if self.max_bytes is None:
            return 0
        self._stored_since_prune = 0
        entries: list[tuple[float, int, Path]] = []
        total = 0
        for kind in ("ast", "page"):
            for path in (self.root / kind).glob("*.pkl"):
                try:
                    status = path.stat()
                except OSError:
                    continue
                entries.append((status.st_atime, status.st_size, path))
                total += status.st_size
        PERF.gauge("disk.total_bytes", total)
        if total <= self.max_bytes:
            return 0
        entries.sort(key=lambda entry: (entry[0], entry[2]))
        removed = 0
        for _atime, size, path in entries:
            if total <= self.max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            removed += 1
        if removed:
            PERF.incr("disk.evictions", removed)
            log.info(
                "disk cache pruned: %d entries evicted, %d bytes kept "
                "(cap %d)", removed, total, self.max_bytes,
            )
        return removed

    # -- key builders -------------------------------------------------------

    @staticmethod
    def ast_key(source_bytes: bytes, path: str) -> str:
        # the absolute path is part of the key because parsed trees (and
        # the diagnostics derived from them) embed it; two byte-identical
        # files at different locations are different cache entries
        digest = hashlib.sha256(ANALYZER_CACHE_VERSION.encode())
        digest.update(b"ast\0")
        digest.update(path.encode("utf-8", errors="replace"))
        digest.update(b"\0")
        digest.update(source_bytes)
        return digest.hexdigest()

    @staticmethod
    def page_key(
        project_state: str,
        root: str,
        rel_page: str,
        audit: bool,
        policy_digest: str = "",
    ) -> str:
        # ``root`` (absolute) is in the key for the same reason as above:
        # stored reports carry absolute file names
        digest = hashlib.sha256(ANALYZER_CACHE_VERSION.encode())
        digest.update(b"page\0")
        digest.update(project_state.encode())
        digest.update(b"\0")
        digest.update(root.encode("utf-8", errors="replace"))
        digest.update(b"\0")
        digest.update(rel_page.encode("utf-8", errors="replace"))
        digest.update(b"\0audit=1" if audit else b"\0audit=0")
        if policy_digest:
            # non-default policy configs key their own entries; the
            # default ("" digest) keeps the historical key unchanged
            digest.update(b"\0policy=")
            digest.update(policy_digest.encode())
        return digest.hexdigest()
