"""Bug-report data structures and rendering."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.lang.grammar import DIRECT, INDIRECT

#: Confidence vocabulary for a verdict, attached by the soundness audit
#: (:mod:`repro.analysis.audit`).  ``SOUND`` — every construct on the
#: page's include closure is modeled exactly; Theorem 3.4 applies as
#: stated.  ``SOUND_MODULO_WIDENING`` — some constructs were
#: over-approximated (still sound, but extra false positives possible).
#: ``UNSOUND_CAVEATS`` — at least one construct *escaped* the model
#: (eval, variable-variable, unresolved dynamic include, …): a
#: "verified" verdict is conditional on those holes being benign.
SOUND = "sound"
SOUND_MODULO_WIDENING = "sound-modulo-widening"
UNSOUND_CAVEATS = "unsound-caveats"

#: The three audit classifications of a construct: handled exactly,
#: over-approximated (sound), or outside the model (a soundness hole).
#: :mod:`repro.php.features` assigns them; they live here so the audit
#: records that pages pickle can be read without loading the PHP front
#: end (DESIGN §5n).
MODELED = "modeled"
WIDENED = "widened"
ESCAPED = "escaped"


@dataclass
class Finding:
    """The verdict for one labeled (untrusted) nonterminal at one hotspot."""

    file: str
    line: int
    sink: str
    nonterminal: str
    labels: frozenset[str]
    check: str         # which check decided: "odd-quotes", "literal-break",
                       # "numeric", "literal-position", "attack-string",
                       # "derivability", "tokenization"
    safe: bool
    witness: str = ""  # an offending untrusted substring, when unsafe
    example_query: str = ""  # a full query embedding the witness
    detail: str = ""
    #: set when the finding is unsafe but witness extraction came back
    #: empty (sampling horizon missed every accepting derivation) — an
    #: unsafe finding with ``witness == ""`` is otherwise indistinguishable
    #: from one whose check needs no witness
    witness_unavailable: bool = False
    #: output context for context-classified policies (e.g. ``attr-sq``)
    context: str = ""
    #: id of the sink policy that produced this finding; empty for the
    #: default SQL-confinement cascade (keeps legacy output byte-stable)
    policy: str = ""
    #: the taint chain behind this verdict
    #: (:class:`repro.analysis.provenance.Provenance`, or None) —
    #: always re-derived from the *hitting* page's grammar, so names and
    #: sites are page-local even when the verdict came from the memo
    provenance: object | None = None

    @property
    def category(self) -> str:
        """``direct`` dominates for report categorization (paper Table 1)."""
        if DIRECT in self.labels:
            return DIRECT
        if INDIRECT in self.labels:
            return INDIRECT
        return "unlabeled"

    def render(self) -> str:
        verdict = "SAFE" if self.safe else "VIOLATION"
        head = (
            f"{verdict} [{self.category}] {self.file}:{self.line} "
            f"sink={self.sink} via {self.check}"
        )
        lines = [head]
        if self.context:
            lines.append(f"  output context: {self.context}")
        if self.witness:
            lines.append(f"  witness substring: {self.witness!r}")
        elif self.witness_unavailable:
            lines.append("  witness substring: (unavailable)")
        if self.example_query:
            lines.append(f"  example query: {self.example_query!r}")
        if self.detail:
            lines.append(f"  {self.detail}")
        if self.provenance is not None and not self.safe:
            for event in self.provenance.sources:
                label = event.get("label", "")
                lines.append(
                    f"  source: {event.get('name', '?')} [{label}] at "
                    f"{event.get('file', '?')}:{event.get('line', '?')}"
                )
            for event in self.provenance.steps:
                lines.append(
                    f"  via {event.get('kind', '?')} {event.get('name', '?')} "
                    f"at {event.get('file', '?')}:{event.get('line', '?')}"
                )
        return "\n".join(lines)

    def as_dict(self) -> dict:
        out = {
            "file": self.file,
            "line": self.line,
            "sink": self.sink,
            "nonterminal": self.nonterminal,
            "labels": sorted(self.labels),
            "category": self.category,
            "check": self.check,
            "safe": self.safe,
            "witness": self.witness,
            "example_query": self.example_query,
            "detail": self.detail,
            "provenance": (
                self.provenance.as_dict() if self.provenance is not None else None
            ),
        }
        # New-policy fields are emitted only when set, so the default
        # SQL-confinement document stays byte-identical to earlier
        # releases (the golden regression test pins this).
        if self.witness_unavailable:
            out["witness_unavailable"] = True
        if self.context:
            out["context"] = self.context
        if self.policy:
            out["policy"] = self.policy
        return out


@dataclass
class HotspotReport:
    file: str
    line: int
    sink: str
    findings: list[Finding] = field(default_factory=list)
    query_samples: list[str] = field(default_factory=list)
    #: stamped by the soundness audit; SOUND when no audit ran (the
    #: pre-audit behaviour, kept for drop-in compatibility)
    confidence: str = SOUND

    @property
    def violations(self) -> list[Finding]:
        return [f for f in self.findings if not f.safe]

    @property
    def verified(self) -> bool:
        return not self.violations

    def render(self) -> str:
        status = "verified" if self.verified else "VULNERABLE"
        head = f"hotspot {self.file}:{self.line} ({self.sink}): {status}"
        if self.confidence != SOUND:
            head += f" [{self.confidence}]"
        lines = [head]
        for sample in self.query_samples[:3]:
            lines.append(f"  query ∋ {sample!r}")
        for finding in self.findings:
            lines.append("  " + finding.render().replace("\n", "\n  "))
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "file": self.file,
            "line": self.line,
            "sink": self.sink,
            "verified": self.verified,
            "confidence": self.confidence,
            "query_samples": self.query_samples[:3],
            "findings": [f.as_dict() for f in self.findings],
        }


@dataclass
class ProjectReport:
    """What the tool prints for one application (cf. Table 1 columns)."""

    name: str
    files: int = 0
    lines: int = 0
    grammar_nonterminals: int = 0
    grammar_productions: int = 0
    string_analysis_seconds: float = 0.0
    check_seconds: float = 0.0
    hotspots: list[HotspotReport] = field(default_factory=list)
    parse_errors: list[str] = field(default_factory=list)
    #: soundness-audit diagnostics (:class:`repro.analysis.audit.Diagnostic`)
    #: over the whole project, deduplicated by source location
    diagnostics: list = field(default_factory=list)

    @property
    def direct_violations(self) -> list[Finding]:
        return [
            f
            for spot in self.hotspots
            for f in spot.violations
            if f.category == DIRECT
        ]

    @property
    def indirect_violations(self) -> list[Finding]:
        return [
            f
            for spot in self.hotspots
            for f in spot.violations
            if f.category == INDIRECT
        ]

    @property
    def verified(self) -> bool:
        return all(spot.verified for spot in self.hotspots)

    @property
    def escaped_diagnostics(self) -> list:
        return [d for d in self.diagnostics if d.classification == "escaped"]

    @property
    def widened_diagnostics(self) -> list:
        return [d for d in self.diagnostics if d.classification == "widened"]

    @property
    def confidence(self) -> str:
        """The weakest confidence over the audit diagnostics."""
        if self.escaped_diagnostics:
            return UNSOUND_CAVEATS
        if self.widened_diagnostics or any(
            spot.confidence != SOUND for spot in self.hotspots
        ):
            return SOUND_MODULO_WIDENING
        return SOUND

    def render(self, audit: bool = False) -> str:
        lines = [
            f"== {self.name} ==",
            f"files={self.files} lines={self.lines} "
            f"|V|={self.grammar_nonterminals} |R|={self.grammar_productions}",
            f"string analysis: {self.string_analysis_seconds:.2f}s, "
            f"checks: {self.check_seconds:.2f}s",
            f"direct violations: {len(self.direct_violations)}, "
            f"indirect reports: {len(self.indirect_violations)}",
        ]
        if self.diagnostics:
            lines.append(
                f"audit: {len(self.escaped_diagnostics)} soundness hole(s), "
                f"{len(self.widened_diagnostics)} widening(s); "
                f"confidence: {self.confidence}"
            )
        for spot in self.hotspots:
            if not spot.verified:
                lines.append(spot.render())
        if audit:
            for diagnostic in self.diagnostics:
                lines.append(diagnostic.render())
        if self.verified:
            lines.append("VERIFIED: no SQLCIV reports")
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "files": self.files,
            "lines": self.lines,
            "grammar_nonterminals": self.grammar_nonterminals,
            "grammar_productions": self.grammar_productions,
            "string_analysis_seconds": self.string_analysis_seconds,
            "check_seconds": self.check_seconds,
            "verified": self.verified,
            "confidence": self.confidence,
            "hotspots": [spot.as_dict() for spot in self.hotspots],
            "diagnostics": [d.as_dict() for d in self.diagnostics],
            "parse_errors": list(self.parse_errors),
        }


def json_document(root, page_results) -> dict:
    """The CLI's ``--json`` document for a list of per-page results.

    One function shared by the batch CLI and the analysis server, so a
    server-mode ``analyze`` response is *byte-identical* (after the same
    ``json.dumps``) to a cold CLI run over the same tree — key order,
    page order, and the overall-confidence fold all live here.
    """
    any_escape = False
    pages = []
    for page_result in page_results:
        page_audit = page_result.audit
        if page_audit is not None:
            any_escape |= bool(page_audit.escapes)
        pages.append(
            {
                "page": page_result.page,
                "verified": all(r.verified for r in page_result.reports),
                "confidence": (
                    page_audit.confidence if page_audit else SOUND
                ),
                "hotspots": [r.as_dict() for r in page_result.reports],
                "audit": page_audit.as_dict() if page_audit else None,
                "parse_errors": list(page_result.parse_errors),
            }
        )
    confidences = {p["confidence"] for p in pages}
    if any_escape:
        overall = UNSOUND_CAVEATS
    elif SOUND_MODULO_WIDENING in confidences:
        overall = SOUND_MODULO_WIDENING
    else:
        overall = SOUND
    return {
        "root": str(root),
        "verified": all(p["verified"] for p in pages),
        "confidence": overall,
        "pages": pages,
    }
