"""The soundness audit: correlate inventory with the analysis run.

The string-taint analysis is sound *relative to its model* of PHP
(Theorem 3.4 assumes every construct on the analyzed path is one the
abstract interpreter understands).  This pass makes the gap auditable:

1. :func:`repro.php.features.inventory_file` statically classifies every
   construct in the page's include closure as modeled / widened /
   escaped;
2. the :class:`AuditTrail` — threaded through the interpreter, the
   builtin models, the :class:`~repro.analysis.absdom.GrammarBuilder`
   widening chokepoint, and the
   :class:`~repro.php.includes.IncludeResolver` — records what the run
   actually did: which builtins fell to a widening model, which grammar
   operands were widened for size, which dynamic includes resolved to
   how many files, where recursion was cut off;
3. :func:`audit_page` merges the two into deduplicated
   :class:`Diagnostic` records and a single confidence verdict for the
   page (``sound`` / ``sound-modulo-widening`` / ``unsound-caveats``).

The static inventory is authoritative for *escapes* (it sees code the
interpreter never reaches); the run-time trail is authoritative for
*widenings* (only the run knows whether ``str_replace`` had a literal or
a dynamic search pattern) and for dynamic-include resolution (a dynamic
include whose alternatives were all found and analyzed is merely
widened, not a hole).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .reports import (
    ESCAPED,
    MODELED,
    SOUND,
    SOUND_MODULO_WIDENING,
    UNSOUND_CAVEATS,
    WIDENED,
)

#: diagnostic severities: escapes void the soundness argument locally,
#: widenings only cost precision
SEVERITY_WARNING = "warning"  # escaped — a soundness caveat
SEVERITY_INFO = "info"        # widened — a precision caveat

_LOCATED_ERROR = re.compile(r"^(?P<file>[^:]+):(?P<line>\d+):\s*(?P<msg>.*)$")


@dataclass(frozen=True)
class Diagnostic:
    """One audit finding, pinned to a source location."""

    kind: str            # feature kind, or "widening" / "recursion" /
                         # "parse-error"
    classification: str  # WIDENED | ESCAPED
    severity: str        # SEVERITY_WARNING | SEVERITY_INFO
    file: str
    line: int
    name: str = ""       # function/builtin name, when there is one
    message: str = ""

    @property
    def key(self) -> tuple:
        """Deduplication key: one diagnostic per (site, kind, name)."""
        return (self.kind, self.file, self.line, self.name)

    def render(self) -> str:
        where = f"{self.file}:{self.line}" if self.file else "<project>"
        subject = f"{self.kind}({self.name})" if self.name else self.kind
        return (
            f"  {self.severity}: {where}: [{self.classification}] "
            f"{subject}: {self.message}"
        )

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "classification": self.classification,
            "severity": self.severity,
            "file": self.file,
            "line": self.line,
            "name": self.name,
            "message": self.message,
        }


class AuditTrail:
    """Run-time instrumentation collected during one page's analysis.

    The interpreter keeps ``location`` pointed at the statement being
    executed and ``call_context`` at the builtin call being modeled, so
    events recorded deep inside the grammar machinery (the
    ``GrammarBuilder.widen`` chokepoint has no idea what PHP line it
    serves) still land on a source location.
    """

    def __init__(self) -> None:
        self.location: tuple[str, int] = ("", 0)
        self.call_context: tuple[str, str, int] | None = None  # name, file, line
        #: (name, file, line) of builtins modeled by a widening handler
        self.builtin_widenings: list[tuple[str, str, int]] = []
        #: (hint-or-name, file, line) of GrammarBuilder.widen invocations
        self.grammar_widenings: list[tuple[str, str, int]] = []
        #: (name, file, line) of calls the interpreter fell through on
        self.unknown_calls: list[tuple[str, str, int]] = []
        #: (name, file, line) where the call-depth/recursion bound hit
        self.recursion_cutoffs: list[tuple[str, str, int]] = []
        #: include site → (was the argument a literal?, max #files resolved)
        self.includes: dict[tuple[str, int], tuple[bool, int]] = {}

    def _site(self) -> tuple[str, str, int]:
        if self.call_context is not None:
            return self.call_context
        file, line = self.location
        return ("", file, line)

    def record_builtin_widening(self, name: str) -> None:
        _, file, line = self._site()
        self.builtin_widenings.append((name, file, line))

    def record_widening(self, hint: str) -> None:
        name, file, line = self._site()
        self.grammar_widenings.append((name or hint, file, line))

    def record_unknown_call(self, name: str, file: str, line: int) -> None:
        self.unknown_calls.append((name, file, line))

    def record_recursion(self, name: str, file: str, line: int) -> None:
        self.recursion_cutoffs.append((name, file, line))

    def record_include(
        self, file: str, line: int, literal: bool, resolved: int
    ) -> None:
        previous = self.includes.get((file, line))
        if previous is not None:
            literal = literal or previous[0]
            resolved = max(resolved, previous[1])
        self.includes[(file, line)] = (literal, resolved)


@dataclass
class AuditReport:
    """The audit verdict for one page (= one include closure)."""

    page: str
    confidence: str = SOUND
    diagnostics: list[Diagnostic] = field(default_factory=list)
    modeled: int = 0   # constructs handled exactly
    widened: int = 0   # constructs over-approximated (sound)
    escaped: int = 0   # constructs outside the model (soundness holes)
    #: unmodeled builtin → occurrence count, for "what to model next"
    unmodeled_builtins: dict[str, int] = field(default_factory=dict)

    @property
    def escapes(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.classification == ESCAPED]

    @property
    def widenings(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics if d.classification == WIDENED]

    def render(self) -> str:
        lines = [
            f"audit {self.page}: {self.confidence} "
            f"(modeled={self.modeled} widened={self.widened} "
            f"escaped={self.escaped})"
        ]
        if self.unmodeled_builtins:
            total = sum(self.unmodeled_builtins.values())
            names = ", ".join(
                f"{name}×{count}" if count > 1 else name
                for name, count in sorted(self.unmodeled_builtins.items())
            )
            lines.append(f"  {total} call(s) to unmodeled builtins: {names}")
        lines.extend(d.render() for d in self.diagnostics)
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "page": self.page,
            "confidence": self.confidence,
            "modeled": self.modeled,
            "widened": self.widened,
            "escaped": self.escaped,
            "unmodeled_builtins": dict(self.unmodeled_builtins),
            "diagnostics": [d.as_dict() for d in self.diagnostics],
        }


def _feature_diagnostic(feat) -> Diagnostic:
    """The diagnostic for one :class:`repro.php.features.Feature`."""
    severity = SEVERITY_WARNING if feat.classification == ESCAPED else SEVERITY_INFO
    return Diagnostic(
        kind=feat.kind,
        classification=feat.classification,
        severity=severity,
        file=feat.file,
        line=feat.line,
        name=feat.name,
        message=feat.detail or feat.kind,
    )


def _parse_error_diagnostic(error: str) -> Diagnostic:
    match = _LOCATED_ERROR.match(error)
    file, line, message = (
        (match.group("file"), int(match.group("line")), match.group("msg"))
        if match
        else ("", 0, error)
    )
    return Diagnostic(
        kind="parse-error",
        classification=ESCAPED,
        severity=SEVERITY_WARNING,
        file=file,
        line=line,
        message=f"file not analyzed: {message}",
    )


def confidence_of(diagnostics: list[Diagnostic]) -> str:
    if any(d.classification == ESCAPED for d in diagnostics):
        return UNSOUND_CAVEATS
    if any(d.classification == WIDENED for d in diagnostics):
        return SOUND_MODULO_WIDENING
    return SOUND


def audit_page(result) -> AuditReport:
    """Audit one :class:`~repro.analysis.stringtaint.AnalysisResult`.

    ``result`` must come from an analysis run with an :class:`AuditTrail`
    attached (``result.audit_trail``); ``result.trees`` holds the parsed
    include closure.
    """
    # the static inventory needs the PHP front end, which a run served
    # entirely from the disk cache never loads (DESIGN §5n)
    from repro.php import features

    trail: AuditTrail | None = result.audit_trail
    known = frozenset(result.known_functions)
    report = AuditReport(page=result.page)

    by_key: dict[tuple, Diagnostic] = {}

    def add(diag: Diagnostic) -> None:
        by_key.setdefault(diag.key, diag)

    # 1. static inventory over the include closure
    for tree in result.trees.values():
        for feat in features.inventory_file(tree, known):
            if feat.classification == MODELED:
                report.modeled += 1
                continue
            if (
                feat.kind == "dynamic-include"
                and trail is not None
                and trail.includes.get((feat.file, feat.line), (False, 0))[1] > 0
            ):
                # the resolver found every candidate file and the
                # interpreter analyzed each alternative: sound, merely
                # over-approximate (a path may be infeasible)
                resolved = trail.includes[(feat.file, feat.line)][1]
                feat = features.Feature(
                    kind=feat.kind,
                    classification=WIDENED,
                    file=feat.file,
                    line=feat.line,
                    name=feat.name,
                    detail=(
                        f"resolved to {resolved} candidate file(s); "
                        "all alternatives analyzed"
                    ),
                )
            if feat.kind == "unknown-builtin":
                report.unmodeled_builtins[feat.name] = (
                    report.unmodeled_builtins.get(feat.name, 0) + 1
                )
            add(_feature_diagnostic(feat))

    # names the static inventory already diagnosed, per site — the
    # interpreter's unknown-call fallthrough would re-report e.g. eval
    # under a coarser kind
    covered_sites = {(d.file, d.line, d.name) for d in by_key.values() if d.name}

    # 2. the run-time trail
    if trail is not None:
        for name, file, line in trail.builtin_widenings:
            add(
                Diagnostic(
                    kind="widened-builtin",
                    classification=WIDENED,
                    severity=SEVERITY_INFO,
                    file=file,
                    line=line,
                    name=name,
                    message="modeled by charset-closure widening",
                )
            )
        for name, file, line in trail.grammar_widenings:
            add(
                Diagnostic(
                    kind="widening",
                    classification=WIDENED,
                    severity=SEVERITY_INFO,
                    file=file,
                    line=line,
                    name=name,
                    message="operand widened to its charset closure",
                )
            )
        for name, file, line in trail.unknown_calls:
            if (file, line, name) in covered_sites:
                continue
            add(
                Diagnostic(
                    kind="unknown-builtin",
                    classification=ESCAPED,
                    severity=SEVERITY_WARNING,
                    file=file,
                    line=line,
                    name=name,
                    message="no model: side effects invisible to the analysis",
                )
            )
        for name, file, line in trail.recursion_cutoffs:
            add(
                Diagnostic(
                    kind="recursion",
                    classification=WIDENED,
                    severity=SEVERITY_INFO,
                    file=file,
                    line=line,
                    name=name,
                    message="call-depth bound reached; result widened to Σ*",
                )
            )
        for (file, line), (literal, resolved) in trail.includes.items():
            if not literal and resolved == 0:
                add(
                    Diagnostic(
                        kind="dynamic-include",
                        classification=ESCAPED,
                        severity=SEVERITY_WARNING,
                        file=file,
                        line=line,
                        message=(
                            "include path matched no project file: "
                            "included code is invisible"
                        ),
                    )
                )

    # 3. files the parser rejected are entirely outside the model
    for error in result.parse_errors:
        add(_parse_error_diagnostic(error))

    report.diagnostics = sorted(
        by_key.values(), key=lambda d: (d.file, d.line, d.kind, d.name)
    )
    report.widened = sum(
        1 for d in report.diagnostics if d.classification == WIDENED
    )
    report.escaped = sum(
        1 for d in report.diagnostics if d.classification == ESCAPED
    )
    report.confidence = confidence_of(report.diagnostics)
    return report
