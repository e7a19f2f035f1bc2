"""Patch verification: static re-analysis + concrete oracle cross-check.

A candidate patch is **verified** only when all of the following hold on
a scratch copy of the project with the patch applied:

1. every patched file still parses, and each inserted expression
   round-trips through the PHP parser to a byte-identical AST-relevant
   rendering (the splice parsed as intended, not merged into a
   neighboring construct);
2. re-running the full static analysis (same pages, same policy
   config), the target finding's key disappears from the finding
   multiset and **no key's count increases** — no new finding under any
   enabled policy.  Keys are line-free
   (``(file, sink, policy, check, category)``) so single-line splices
   that shift later line numbers cannot masquerade as new findings;
3. when the finding's provenance names superglobal sources with
   concrete keys, the original witness vector is replayed through the
   concrete oracle interpreter: it must produce an *unconfined* tainted
   run at the sink on the unpatched tree (the violation is real and
   reproducible) and only confined runs on the patched tree.  Findings
   whose sources cannot be driven from request inputs (``$_SERVER``,
   database reads) are verified **static-only** and say so.
"""

from __future__ import annotations

import shutil
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.policies.config import DEFAULT_CONFIG, PolicyConfig
from repro.obs.metrics import PERF
from repro.php import ast
from repro.php.parser import PhpParseError, parse

#: oracle cross-check statuses
ORACLE_CONFIRMED = "confirmed"        # violated before, confined after
ORACLE_STATIC_ONLY = "static-only"    # no constructible witness vector
ORACLE_FAILED = "failed"              # patched tree still violates

FindingKey = tuple[str, str, str, str, str]


def finding_key(finding, root: Path) -> FindingKey:
    """Line-free identity of a finding for before/after comparison."""
    try:
        rel = Path(finding.file).resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        rel = Path(finding.file).as_posix()
    return (
        rel,
        finding.sink,
        finding.policy or "sql",
        finding.check,
        finding.category,
    )


def finding_multiset(page_results, root: Path) -> Counter:
    """Unsafe-finding keys over a run's page results."""
    keys: Counter = Counter()
    for page_result in page_results:
        for report in page_result.reports:
            for finding in report.findings:
                if not finding.safe:
                    keys[finding_key(finding, root)] += 1
    return keys


# ---------------------------------------------------------------------------
# parser round-trip
# ---------------------------------------------------------------------------


def canonical_render(node) -> str:
    """Deterministic structural rendering of an AST (spans and lines
    excluded) — equal renderings mean AST-identical programs."""
    if isinstance(node, ast.Node):
        fields = []
        for name in sorted(node._fields):
            fields.append(f"{name}={canonical_render(getattr(node, name))}")
        return f"{type(node).__name__}({', '.join(fields)})"
    if isinstance(node, list):
        return "[" + ", ".join(canonical_render(item) for item in node) + "]"
    if isinstance(node, tuple):
        return "(" + ", ".join(canonical_render(item) for item in node) + ")"
    return repr(node)


def roundtrip_patch(patched_text: str, patch, path: str) -> str | None:
    """None when the patch round-trips; otherwise the failure reason.

    The patched file must parse, and each inserted replacement text,
    parsed stand-alone as an expression, must render byte-identically to
    a subtree of the patched file's AST — i.e. the splice means in
    context exactly what it means in isolation.
    """
    try:
        tree = parse(patched_text, path)
    except PhpParseError as exc:
        return f"patched file no longer parses: {exc}"
    rendered_tree = canonical_render(tree)
    for _start, _end, replacement in patch.replacements:
        try:
            snippet = parse(f"<?php ({replacement});", path)
        except PhpParseError as exc:
            return f"replacement does not parse as an expression: {exc}"
        body = snippet.body.statements
        if len(body) != 1 or not isinstance(body[0], ast.ExprStmt):
            return "replacement is not a single expression"
        expected = canonical_render(body[0].expr)
        if expected not in rendered_tree:
            return (
                "replacement parsed differently in context than in "
                "isolation"
            )
    return None


# ---------------------------------------------------------------------------
# witness vectors from provenance
# ---------------------------------------------------------------------------

#: superglobal name → InputVector table
_VECTOR_TABLES = {
    "_GET": "get",
    "HTTP_GET_VARS": "get",
    "_REQUEST": "get",
    "_POST": "post",
    "HTTP_POST_VARS": "post",
    "_COOKIE": "cookie",
    "HTTP_COOKIE_VARS": "cookie",
    "_SESSION": "session",
    "HTTP_SESSION_VARS": "session",
}

#: attack value used when the finding carries no witness substring
_DEFAULT_ATTACK = "' OR '1'='1"


def witness_vector(finding):
    """An :class:`~repro.oracle.interp.InputVector` reconstructed from
    the finding's provenance sources, or None when any source is not a
    keyed request superglobal (``$_SERVER``, database reads, dynamic
    keys — no witness is constructible)."""
    from repro.oracle.interp import InputVector

    provenance = finding.provenance
    if provenance is None or not provenance.sources:
        return None
    tables: dict[str, dict[str, str]] = {
        "get": {}, "post": {}, "cookie": {}, "session": {},
    }
    value = finding.witness or _DEFAULT_ATTACK
    for event in provenance.sources:
        table = _VECTOR_TABLES.get(event.get("name", ""))
        key = event.get("key")
        if table is None or not key:
            return None
        tables[table][str(key)] = value
    return InputVector(
        get=tables["get"],
        post=tables["post"],
        cookie=tables["cookie"],
        session=tables["session"],
    )


def _run_confined(query: str, lo: int, hi: int, policy: str) -> bool:
    """Is the exact tainted run ``query[lo:hi]`` confined for ``policy``?"""
    if policy == "shell":
        from repro.analysis.policies.shell import shell_breakout

        return not shell_breakout().accepts_string(query[lo:hi])
    from repro.sql.confinement import check_confinement

    try:
        return check_confinement(query, lo, hi).confined
    except ValueError:
        return False


def oracle_unconfined(
    project_root: Path, entry: str, finding, vector
) -> bool | None:
    """Replay ``vector``; True when some sink hit matching the finding's
    (file, sink) has an unconfined exact tainted run, False when every
    matching run is confined, None when the execution left the mirrored
    subset (oracle cannot decide)."""
    from repro.analysis import sources as sink_tables
    from repro.oracle.interp import UnsupportedConstruct, execute_page

    policy = finding.policy or "sql"
    if policy not in ("sql", "shell"):
        return None
    extra_sinks = (
        dict(sink_tables.SHELL_FUNCTIONS) if policy == "shell" else None
    )
    try:
        hits = execute_page(
            project_root, entry, vector, extra_sinks=extra_sinks
        )
    except UnsupportedConstruct:
        return None
    target_name = Path(finding.file).name
    saw_hit = False
    for hit in hits:
        if hit.sink != finding.sink or Path(hit.file).name != target_name:
            continue
        saw_hit = True
        for lo, hi, exact in hit.runs:
            if not exact or lo == hi:
                continue
            if not _run_confined(hit.query, lo, hi, policy):
                return True
    return False if saw_hit else None


# ---------------------------------------------------------------------------
# the verifier
# ---------------------------------------------------------------------------


@dataclass
class Verification:
    """Everything one patch's verification produced."""

    verified: bool = False
    reason: str = ""
    oracle: str = ORACLE_STATIC_ONLY
    #: keys whose count rose on the patched tree (regressions)
    new_keys: list[FindingKey] = field(default_factory=list)
    #: target keys that failed to disappear
    surviving: list[FindingKey] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "verified": self.verified,
            "reason": self.reason,
            "oracle": self.oracle,
            "new_findings": [list(key) for key in self.new_keys],
            "surviving": [list(key) for key in self.surviving],
        }


class Workspace:
    """A scratch copy of the project the engine patches cumulatively."""

    def __init__(self, project_root: Path) -> None:
        self.original_root = Path(project_root).resolve()
        import tempfile

        self._tmp = tempfile.mkdtemp(prefix="sqlciv-fix-")
        self.root = Path(self._tmp) / "tree"
        shutil.copytree(self.original_root, self.root)

    def close(self) -> None:
        shutil.rmtree(self._tmp, ignore_errors=True)

    def map_path(self, original_file: str | Path) -> Path:
        rel = Path(original_file).resolve().relative_to(self.original_root)
        return self.root / rel

    def read(self, original_file: str | Path) -> str:
        return self.map_path(original_file).read_text()

    def write(self, original_file: str | Path, text: str) -> None:
        self.map_path(original_file).write_text(text)


def analyze_tree(
    root: Path, pages: list[str], policies: PolicyConfig = DEFAULT_CONFIG
) -> Counter:
    """Unsafe-finding multiset of ``root`` (serial, uncached — the
    verifier must see exactly the current bytes on disk)."""
    from repro.analysis.analyzer import run_pages

    with PERF.timer("remediate.reanalysis"):
        results = run_pages(
            root, [root / page for page in pages], audit=False, jobs=1,
            policies=policies,
        )
    return finding_multiset(results, root)


def verify_patch(
    workspace: Workspace,
    patch,
    target_keys: list[FindingKey],
    pages: list[str],
    baseline: Counter,
    policies: PolicyConfig = DEFAULT_CONFIG,
    oracle_findings: list[tuple[str, object]] | None = None,
) -> tuple[Verification, Counter]:
    """Apply ``patch`` on the workspace, verify, and either keep it
    (returning the new baseline multiset) or revert it.

    ``baseline`` is the finding multiset of the workspace *before* this
    patch; ``target_keys`` the keys this patch must remove (one entry
    per addressed finding).  ``oracle_findings`` is a list of
    ``(entry_page, finding)`` pairs to cross-check concretely.
    """
    verification = Verification()
    original_texts = {patch.file: workspace.read(patch.file)}
    patched_text = patch.apply(original_texts[patch.file])

    failure = roundtrip_patch(patched_text, patch, patch.file)
    if failure is not None:
        verification.reason = f"round-trip: {failure}"
        return verification, baseline

    # concrete pre-check on the unpatched workspace: the witness vector
    # must actually violate (otherwise the oracle can't confirm the fix)
    oracle_status = ORACLE_STATIC_ONLY
    replayable: list[tuple[str, object, object]] = []
    for entry, finding in oracle_findings or ():
        vector = witness_vector(finding)
        if vector is None:
            continue
        before = oracle_unconfined(workspace.root, entry, finding, vector)
        if before is True:
            replayable.append((entry, finding, vector))

    workspace.write(patch.file, patched_text)
    patched = analyze_tree(workspace.root, pages, policies=policies)

    regressions = [key for key in patched if patched[key] > baseline[key]]
    needed: Counter = Counter(target_keys)
    surviving = [
        key
        for key, count in needed.items()
        if patched[key] > baseline[key] - count
    ]
    if regressions or surviving:
        workspace.write(patch.file, original_texts[patch.file])
        verification.new_keys = sorted(regressions)
        verification.surviving = sorted(surviving)
        verification.reason = (
            "re-analysis: new findings appeared"
            if regressions
            else "re-analysis: target finding survived the patch"
        )
        return verification, baseline

    for entry, finding, vector in replayable:
        after = oracle_unconfined(workspace.root, entry, finding, vector)
        if after is True:
            workspace.write(patch.file, original_texts[patch.file])
            verification.reason = (
                "oracle: witness vector still produces an unconfined "
                "tainted run on the patched tree"
            )
            verification.oracle = ORACLE_FAILED
            return verification, baseline
        oracle_status = ORACLE_CONFIRMED

    verification.verified = True
    verification.oracle = oracle_status
    return verification, patched
