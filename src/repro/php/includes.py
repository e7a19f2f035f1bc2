"""Dynamic include resolution (paper §4).

When the analyzer reaches ``include("lan_" . $choice . ".php")`` it must
know which files can be included.  The paper's approach, reproduced
here: treat the project's file-and-directory layout as part of the
specification — build the (finite, regular) language of project-relative
paths, intersect it with the language of the include argument, and
analyze every file in the result.

The intersection is evaluated by membership tests of each candidate path
string against the include-argument grammar, which is equivalent to the
regular-language intersection for a finite path language.  Membership is
decided by the char-level Earley kernel (the one the differential oracle
uses), on the argument scope lowered once per include;
:meth:`Grammar.generates` stays the independent reference it is checked
against.
"""

from __future__ import annotations

import os
from pathlib import Path
from types import MappingProxyType
from typing import Mapping

from repro.lang.earley import char_membership, char_token_grammar
from repro.lang.grammar import Grammar, Nonterminal
from repro.obs.metrics import PERF


def _relative(path: str, base: str) -> str | None:
    """``PurePosixPath(path).relative_to(base).as_posix()`` over the
    normalized string forms pathlib produces, or None where pathlib
    raises ``ValueError``: ``base`` must equal ``path`` or be one of its
    parents (``.`` is the last parent of every relative path)."""
    if path == base:
        return "."
    if base == ".":
        return None if path.startswith("/") else path
    prefix = base if base.endswith("/") else base + "/"
    if path.startswith(prefix):
        return path[len(prefix):]
    return None


class IncludeResolver:
    def __init__(self, project_root: str | Path) -> None:
        self.root = Path(project_root)
        self._files: list[Path] = []
        if self.root.is_dir():
            for dirpath, _dirnames, filenames in os.walk(self.root):
                for filename in filenames:
                    if filename.endswith((".php", ".inc", ".html", ".tpl")):
                        self._files.append(Path(dirpath) / filename)
        self._files.sort()
        # the layout is fixed for the resolver's lifetime: path strings
        # and project-relative names are computed once, and each
        # directory's name table is built at most once
        self._paths = [file.as_posix() for file in self._files]
        root = self.root.as_posix()
        self._root_names = [_relative(path, root) for path in self._paths]
        self._tables: dict[str, Mapping[str, Path]] = {}

    def project_files(self) -> list[Path]:
        return list(self._files)

    def candidate_names(self, current_dir: Path) -> Mapping[str, Path]:
        """Every name a project file could be referred to by from
        ``current_dir``: project-relative, current-dir-relative, bare.

        The table depends only on the file list, the root and
        ``current_dir``, so it is built once per directory and shared
        read-only; earlier names win, in sorted-file order."""
        current = Path(current_dir).as_posix()
        table = self._tables.get(current)
        if table is not None:
            PERF.incr("include.names.hits")
            return table
        PERF.incr("include.names.builds")
        names: dict[str, Path] = {}
        for file, path, rel_root in zip(
            self._files, self._paths, self._root_names
        ):
            names.setdefault(rel_root, file)
            names.setdefault("./" + rel_root, file)
            rel_cur = _relative(path, current)
            if rel_cur is not None:
                names.setdefault(rel_cur, file)
                names.setdefault("./" + rel_cur, file)
        table = self._tables[current] = MappingProxyType(names)
        return table

    def resolve(
        self,
        grammar: Grammar,
        path_nt: Nonterminal,
        current_dir: str | Path,
        limit: int = 64,
        audit=None,
        site: tuple[str, int] | None = None,
        literal: bool = False,
        deps: set[str] | None = None,
    ) -> list[Path]:
        """Files whose names the include-argument grammar can generate.

        ``audit``/``site``/``literal`` are the soundness-audit hooks: when
        an :class:`~repro.analysis.audit.AuditTrail` is given, the outcome
        of this resolution (how many candidate files the include-argument
        language matched, and whether the argument was a source literal)
        is recorded against the include site so the audit pass can tell a
        *widened* dynamic include (resolved to ≥1 project file, every
        alternative analyzed) from an *escaped* one (resolved to nothing —
        the included code is invisible to the analysis).

        ``deps`` is the caller's file-dependency accumulator (the basis of
        the analysis server's incremental invalidation): every resolved
        file is added to it, even files the interpreter then skips for
        ``include_once``/cycle reasons — a skipped alternative is still
        part of the page's specification.
        """
        current = Path(current_dir)
        names = self.candidate_names(current)
        # Fast path: the argument language is a small finite set of
        # strings, enumerated in full (None when it is not, or may not
        # be, so a partial sample never stands in for the answer).
        literals = grammar.enumerate_finite(path_nt, max_strings=7, max_len=300)
        exact = [names[text] for text in literals or () if text in names]
        if exact:
            resolved = sorted(set(exact))
        else:
            scope = grammar.subgrammar(path_nt)
            # Sound pruning: every string of the argument language
            # carries the forced affixes, so a candidate without them
            # cannot be generated and the exact test can be skipped.
            summary = scope.affix_summary(path_nt)
            if summary is None:
                candidates = []
            else:
                prefix, suffix, min_len = summary
                candidates = [
                    (text, file)
                    for text, file in names.items()
                    if len(text) >= min_len
                    and text.startswith(prefix)
                    and text.endswith(suffix)
                ]
            PERF.incr("include.prefilter.pruned", len(names) - len(candidates))
            PERF.incr("include.prefilter.kept", len(candidates))
            matches: set[Path] = set()
            if candidates:
                PERF.incr("include.membership.tests", len(candidates))
                with PERF.timer("include.membership"):
                    prepared = char_token_grammar(scope, path_nt)
                    matches = {
                        file
                        for text, file in candidates
                        if char_membership(prepared, text)
                    }
            resolved = sorted(matches)[:limit]
        if audit is not None:
            file, line = site if site is not None else ("", 0)
            audit.record_include(file, line, literal, len(resolved))
        if deps is not None:
            deps.update(str(file) for file in resolved)
        return resolved
