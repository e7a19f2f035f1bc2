"""``sqlciv fuzz`` — the generative differential-soundness driver.

Each iteration samples a random page from the construct pools in
:func:`repro.corpus.generator.generate_fuzz_page`, samples a handful of
input vectors mixing attack-ish and benign strings, runs the static
analysis once and the concrete interpreter once per vector on the
analysis's own parsed trees, and cross-checks membership and verdicts
(:mod:`repro.oracle.differ`).

On a divergence the driver shrinks the page to a minimal reproducer
(greedy line deletion — syntactically broken candidates are rejected
naturally because they cannot reproduce the divergence) and the vector
to its needed keys, then writes both plus a report into the artifacts
directory.

Every random decision flows through one ``random.Random(seed)``; the
same ``--seed`` reproduces the same corpus byte-for-byte on any
platform or Python version (the Mersenne generator's float and choice
sequences are stable).
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

from repro.corpus.generator import _FUZZ_PARAMS, generate_fuzz_page

from .differ import Divergence, PageOracle, diff_page
from .interp import InputVector, UnsupportedConstruct, execute_page

EXIT_CLEAN = 0
EXIT_DIVERGENCES = 1
EXIT_USAGE = 2

#: attacker-shaped values: quote/backslash/comment/union shapes
ATTACK_VALUES = [
    "' OR 1=1 --",
    "x'; DROP TABLE users; --",
    "a'b",
    "'",
    '"',
    "\\",
    "\\'",
    "1 UNION SELECT name FROM users",
    "%27",
    "a,b',c",
    "'--",
    "0; DELETE FROM log",
]

#: shell-breakout shapes mixed in under ``--policy shell``: unquoted
#: metacharacters, command substitution, quote splicing
SHELL_ATTACK_VALUES = [
    "; id",
    "| cat /etc/passwd",
    "$(id)",
    "`id`",
    "&& touch pwned",
    "'",
    "'; id; '",
    "a > out.txt",
    "\\",
]

#: values an honest user might send
BENIGN_VALUES = [
    "7",
    "42",
    "abc",
    "",
    "0",
    "red",
    "blue",
    "edit",
    "a,b,c",
    "hello world",
    "item9",
]


def sample_vector(rng: random.Random, policy: str | None = None) -> InputVector:
    attack_pool = ATTACK_VALUES
    if policy == "shell":
        attack_pool = ATTACK_VALUES + SHELL_ATTACK_VALUES

    def table() -> dict[str, str]:
        out: dict[str, str] = {}
        for key in _FUZZ_PARAMS:
            if rng.random() < 0.85:
                pool = attack_pool if rng.random() < 0.45 else BENIGN_VALUES
                out[key] = rng.choice(pool)
        return out

    return InputVector(
        get=table(),
        post=table(),
        cookie=table(),
        session=table(),
        seed=rng.randrange(1 << 30),
    )


@dataclass
class FuzzReport:
    iterations: int = 0
    vectors: int = 0
    skipped_vectors: int = 0
    hits: int = 0
    divergences: list[Divergence] = field(default_factory=list)
    #: one outcome dict per divergence when ``--fix-check`` ran
    fix_checks: list[dict] = field(default_factory=list)

    def render(self) -> str:
        lines = [
            f"fuzz: {self.iterations} pages, {self.vectors} vectors "
            f"({self.skipped_vectors} outside subset), "
            f"{self.hits} sink hits, {len(self.divergences)} divergence(s)"
        ]
        for divergence in self.divergences:
            lines.append(divergence.render())
        for outcome in self.fix_checks:
            lines.append(render_fix_check(outcome))
        return "\n".join(lines)


def render_fix_check(outcome: dict) -> str:
    if outcome.get("error"):
        return f"fix-check: engine error — {outcome['error']}"
    survives = outcome.get("survives")
    verdict = (
        "no verified patch"
        if survives is None
        else (
            "divergence SURVIVES the patch"
            if survives
            else "divergence eliminated by the patch"
        )
    )
    return (
        f"fix-check: {outcome.get('fixed', 0)} patched / "
        f"{outcome.get('unfixable', 0)} unfixable — {verdict}"
    )


# ---------------------------------------------------------------------------
# shrinking
# ---------------------------------------------------------------------------


def _reproduces(
    app: Path, entry: str, vector: InputVector, kind: str,
    policy: str | None = None,
) -> bool:
    try:
        divergences = diff_page(app, entry, [vector], policy=policy)
    except Exception:
        return False
    return any(d.kind == kind for d in divergences)


def minimize_page(
    app: Path, entry: str, vector: InputVector, kind: str,
    policy: str | None = None,
) -> None:
    """Greedily delete page lines while the divergence reproduces."""
    page_path = app / entry
    for target in [app / "includes" / "clean.php", page_path]:
        if not target.exists():
            continue
        changed = True
        while changed:
            changed = False
            lines = target.read_text().splitlines()
            index = 1  # keep the `<?php` opener
            while index < len(lines):
                candidate = lines[:index] + lines[index + 1 :]
                target.write_text("\n".join(candidate) + "\n")
                if _reproduces(app, entry, vector, kind, policy=policy):
                    lines = candidate
                    changed = True
                else:
                    target.write_text("\n".join(lines) + "\n")
                    index += 1


def minimize_vector(
    app: Path, entry: str, vector: InputVector, kind: str,
    policy: str | None = None,
) -> InputVector:
    """Drop superglobal keys the reproduction does not need."""
    current = vector
    for attr in ("get", "post", "cookie", "session"):
        table = dict(getattr(current, attr))
        for key in list(table):
            trimmed = dict(table)
            del trimmed[key]
            candidate = InputVector(**{**current.as_dict(), attr: trimmed})
            if _reproduces(app, entry, candidate, kind, policy=policy):
                table = trimmed
                current = candidate
    return current


def _write_artifact(
    artifacts: Path,
    iteration: int,
    app: Path,
    entry: str,
    vector: InputVector,
    divergence: Divergence,
    policy: str | None = None,
    fix_outcome: dict | None = None,
) -> Path:
    target = artifacts / f"div_{iteration:04d}_{divergence.kind}"
    if target.exists():
        shutil.rmtree(target)
    shutil.copytree(app, target)
    (target / "vector.json").write_text(json.dumps(vector.as_dict(), indent=2))
    if policy:
        # the marker the regression-seed replayer reads to re-enable the
        # same policy mode (tests/oracle seeds)
        (target / "policy").write_text(policy + "\n")
    report = (
        divergence.render()
        + f"\n\nreplay: analyze {entry} and execute it under vector.json\n"
    )
    if fix_outcome is not None:
        report += render_fix_check(fix_outcome) + "\n"
        (target / "fix-check.json").write_text(
            json.dumps(fix_outcome, indent=2) + "\n"
        )
    (target / "report.txt").write_text(report)
    return target


def attempt_fix(
    app: Path,
    entry: str,
    vector: InputVector,
    kind: str,
    policy: str | None = None,
) -> dict:
    """Post-minimization remediation attempt (``--fix-check``).

    Runs the remediation engine over a copy of the minimized
    reproducer, applies whatever verifies, and replays the divergence
    on the patched tree.  ``survives`` is None when nothing verified,
    else whether the same divergence kind still reproduces — a
    divergence that survives a verified patch is a stronger soundness
    signal than the divergence alone (the engine's re-analysis agreed
    the finding was gone, yet the concrete behaviour persists).
    """
    outcome: dict = {"attempted": True, "fixed": 0, "unfixable": 0,
                     "survives": None}
    copy = Path(tempfile.mkdtemp(prefix="sqlciv-fixcheck-")) / "app"
    shutil.copytree(app, copy)
    try:
        from repro.analysis.policies import DEFAULT_CONFIG, PolicyConfig
        from repro.remediate import remediate_project

        policies = PolicyConfig((policy,)) if policy else DEFAULT_CONFIG
        try:
            report = remediate_project(
                copy, pages=[entry], policies=policies, apply=True,
                oracle=False,
            )
        except Exception as exc:   # engine failure is a finding, not a crash
            outcome["error"] = f"{type(exc).__name__}: {exc}"
            return outcome
        outcome["fixed"] = len(report.fixed)
        outcome["unfixable"] = len(report.unfixable)
        outcome["statuses"] = [e.status for e in report.entries]
        if report.applied:
            outcome["survives"] = _reproduces(
                copy, entry, vector, kind, policy=policy
            )
        return outcome
    finally:
        shutil.rmtree(copy.parent, ignore_errors=True)


# ---------------------------------------------------------------------------
# the driver
# ---------------------------------------------------------------------------


def run_fuzz(
    iterations: int,
    seed: int,
    vectors_per_page: int = 4,
    statements: int = 10,
    minimize: bool = True,
    artifacts_dir: str | Path | None = None,
    progress_every: int = 25,
    log=print,
    policy: str | None = None,
    fix_check: bool = False,
) -> FuzzReport:
    rng = random.Random(seed)
    report = FuzzReport()
    artifacts = Path(artifacts_dir) if artifacts_dir else None
    for iteration in range(iterations):
        report.iterations += 1
        workdir = Path(tempfile.mkdtemp(prefix="sqlciv-fuzz-"))
        try:
            entry = generate_fuzz_page(
                workdir, rng, statements=statements, policy=policy
            )
            vectors = [
                sample_vector(rng, policy=policy)
                for _ in range(vectors_per_page)
            ]
            oracle = PageOracle(workdir, entry, policy=policy)
            found: list[tuple[InputVector, Divergence]] = []
            for vector in vectors:
                report.vectors += 1
                try:
                    hits = execute_page(
                        workdir, entry, vector, extra_sinks=oracle.extra_sinks,
                        trees=oracle.result.trees,
                    )
                except UnsupportedConstruct:
                    report.skipped_vectors += 1
                    continue
                report.hits += len(hits)
                divergences = []
                for hit in hits:
                    divergences.extend(oracle.check_hit(hit, vector))
                if divergences:
                    found.append((vector, divergences[0]))
            if found:
                vector, divergence = found[0]
                if minimize:
                    minimize_page(
                        workdir, entry, vector, divergence.kind, policy=policy
                    )
                    vector = minimize_vector(
                        workdir, entry, vector, divergence.kind, policy=policy
                    )
                    refreshed = diff_page(workdir, entry, [vector], policy=policy)
                    for candidate in refreshed:
                        if candidate.kind == divergence.kind:
                            divergence = candidate
                            break
                report.divergences.append(divergence)
                fix_outcome = None
                if fix_check:
                    fix_outcome = attempt_fix(
                        workdir, entry, vector, divergence.kind,
                        policy=policy,
                    )
                    report.fix_checks.append(fix_outcome)
                    log(render_fix_check(fix_outcome))
                if artifacts is not None:
                    artifacts.mkdir(parents=True, exist_ok=True)
                    where = _write_artifact(
                        artifacts, iteration, workdir, entry, vector,
                        divergence, policy=policy, fix_outcome=fix_outcome,
                    )
                    log(f"divergence at iteration {iteration}: saved {where}")
                else:
                    log(f"divergence at iteration {iteration}:")
                    log(divergence.render())
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        if progress_every and (iteration + 1) % progress_every == 0:
            log(
                f"  … {iteration + 1}/{iterations} pages, "
                f"{len(report.divergences)} divergence(s)"
            )
    return report


def fuzz_main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sqlciv fuzz",
        description=(
            "differential soundness fuzzing: random pages, concrete "
            "executions, grammar-membership and verdict cross-checks"
        ),
    )
    parser.add_argument("--iterations", type=int, default=100)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--vectors-per-page", type=int, default=4)
    parser.add_argument("--statements", type=int, default=10)
    parser.add_argument(
        "--policy",
        choices=["shell"],
        default=None,
        help=(
            "also fuzz a sink policy differentially: generated pages "
            "gain that policy's sinks, vectors gain matching attack "
            "shapes, and safe verdicts are cross-checked against the "
            "policy's danger automaton"
        ),
    )
    parser.add_argument(
        "--minimize",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="shrink divergent pages/vectors to minimal reproducers",
    )
    parser.add_argument(
        "--fix-check",
        action="store_true",
        help=(
            "after minimizing a divergence, run the remediation engine "
            "on the reproducer and report whether the divergence "
            "survives the verified patches"
        ),
    )
    parser.add_argument(
        "--artifacts-dir",
        default="fuzz-artifacts",
        help="where minimized reproducers are written",
    )
    try:
        options = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0,) else 0
    report = run_fuzz(
        iterations=options.iterations,
        seed=options.seed,
        vectors_per_page=options.vectors_per_page,
        statements=options.statements,
        minimize=options.minimize,
        artifacts_dir=options.artifacts_dir,
        policy=options.policy,
        fix_check=options.fix_check,
    )
    print(report.render())
    return EXIT_DIVERGENCES if report.divergences else EXIT_CLEAN
