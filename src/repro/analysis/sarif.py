"""SARIF 2.1.0 export (``--sarif out.sarif``).

Renders a run's findings — with their full provenance chains — in the
OASIS Static Analysis Results Interchange Format, so the reports plug
into SARIF consumers (code-review UIs, CI annotators) instead of only
our own text/JSON renderings.

Mapping:

* each non-safe :class:`~repro.analysis.reports.Finding` becomes a
  ``result`` whose ``ruleId`` is the C1–C5 check that fired
  (``odd-quotes``, ``literal-break``, ``attack-string``,
  ``derivability``, ``tokenization``), at level ``error`` for
  ``direct`` taint and ``warning`` for ``indirect``;
* the finding's :class:`~repro.analysis.provenance.Provenance` becomes
  one ``codeFlow``: a ``threadFlow`` whose locations run from the
  untrusted source site(s) through every recorded string operation to
  the hotspot sink;
* file locations are project-root-relative under the ``SRCROOT`` uri
  base, so the document is stable across checkouts of the same tree.

The document is deterministic: results appear in page order, provenance
is re-derived per page by deterministic BFS, and serialization order is
construction order — which is what makes a warm-cache run's SARIF
byte-identical to the cold run's (asserted by the test suite).
"""

from __future__ import annotations

import json
from pathlib import Path

from .policies.config import DEFAULT_CONFIG, PolicyConfig
from .reports import Finding
from .sarifschema import SARIF_2_1_0_SCHEMA

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://docs.oasis-open.org/sarif/sarif/v2.1.0/errata01/os/schemas/"
    "sarif-schema-2.1.0.json"
)

#: rule catalog: every check the cascade can decide on, C1–C5 order
RULES: list[dict] = [
    {
        "id": "odd-quotes",
        "name": "OddUnescapedQuotes",
        "shortDescription": {
            "text": "Untrusted data derives a string with an odd number of "
                    "unescaped quotes (C1): it can never be syntactically "
                    "confined."
        },
        "defaultConfiguration": {"level": "error"},
    },
    {
        "id": "literal-position",
        "name": "StringLiteralPosition",
        "shortDescription": {
            "text": "Untrusted data occurs only inside string literals and "
                    "derives no unescaped quote (C2): safe."
        },
        "defaultConfiguration": {"level": "none"},
    },
    {
        "id": "literal-break",
        "name": "StringLiteralBreakout",
        "shortDescription": {
            "text": "Untrusted data sits inside string literals but derives "
                    "an unescaped quote (C2): it can break out of the "
                    "literal."
        },
        "defaultConfiguration": {"level": "error"},
    },
    {
        "id": "numeric",
        "name": "NumericLiteralsOnly",
        "shortDescription": {
            "text": "Untrusted data derives only numeric literals (C3): safe."
        },
        "defaultConfiguration": {"level": "none"},
    },
    {
        "id": "attack-string",
        "name": "KnownAttackFragment",
        "shortDescription": {
            "text": "Untrusted data derives a known non-confinable fragment "
                    "outside quotes (C4)."
        },
        "defaultConfiguration": {"level": "error"},
    },
    {
        "id": "derivability",
        "name": "GrammarDerivability",
        "shortDescription": {
            "text": "Definition 3.2 derivability (C5): the untrusted "
                    "subgrammar is (or is not) derivable from a "
                    "context-compatible SQL nonterminal."
        },
        "defaultConfiguration": {"level": "error"},
    },
    {
        "id": "tokenization",
        "name": "TokenizationFailure",
        "shortDescription": {
            "text": "The query context or untrusted subgrammar does not "
                    "tokenize cleanly; the check fails closed (C5)."
        },
        "defaultConfiguration": {"level": "error"},
    },
]


def _rule_catalog(policies: PolicyConfig):
    """``(rules, rule_index, titles)`` for a run: the concatenation of
    every enabled policy's rules in registry order (SQL's :data:`RULES`
    first, since every config holds ``sql``), and ``titles`` maps policy
    id → message prefix."""
    rules: list[dict] = []
    index: dict[str, int] = {}
    titles: dict[str, str] = {}
    for policy in policies.policies():
        titles[policy.id] = policy.title
        for rule in policy.rules:
            if rule["id"] not in index:
                index[rule["id"]] = len(rules)
                rules.append(rule)
    return rules, index, titles


def _relative_uri(file: str, root: Path) -> dict:
    """Root-relative artifact location when possible (stable across
    checkouts); absolute file uri otherwise."""
    try:
        rel = Path(file).resolve().relative_to(root)
        return {"uri": rel.as_posix(), "uriBaseId": "SRCROOT"}
    except (ValueError, OSError):
        return {"uri": Path(file).as_posix()}


def _location(
    file: str,
    line: int,
    root: Path,
    message: str | None = None,
    span: list | tuple | None = None,
) -> dict:
    location: dict = {
        "physicalLocation": {
            "artifactLocation": _relative_uri(file, root),
        }
    }
    if line and line > 0:
        region: dict = {"startLine": line}
        if span and len(span) == 2 and span[0] >= 0 and span[1] >= span[0]:
            # byte-exact source span recorded by the provenance chain
            # (SARIF §3.30.11: charOffset/charLength are 0-based)
            region["charOffset"] = int(span[0])
            region["charLength"] = int(span[1] - span[0])
        location["physicalLocation"]["region"] = region
    if message:
        location["message"] = {"text": message}
    return location


def _step_message(event: dict) -> str:
    kind = event.get("kind", "?")
    name = event.get("name", "?")
    if kind == "source":
        label = event.get("label", "")
        return f"untrusted source {name} [{label}]"
    text = f"{kind} {name}"
    op = event.get("op")
    if op and op != name:
        text += f" ({op})"
    before, after = event.get("before"), event.get("after")
    if before or after:
        text += f": {before!r} ↦ {after!r}"
    return text


def _code_flow(finding: Finding, root: Path) -> dict | None:
    provenance = finding.provenance
    if provenance is None:
        return None
    locations = []
    for event in provenance.sources:
        locations.append(
            {
                "location": _location(
                    event.get("file", ""), event.get("line", 0), root,
                    _step_message(event), span=event.get("span"),
                )
            }
        )
    for event in provenance.steps:
        locations.append(
            {
                "location": _location(
                    event.get("file", ""), event.get("line", 0), root,
                    _step_message(event), span=event.get("span"),
                )
            }
        )
    locations.append(
        {
            "location": _location(
                finding.file, finding.line, root,
                f"query sink {finding.sink}; check {finding.check} fired "
                f"on nonterminal {provenance.nonterminal}",
            )
        }
    )
    flow: dict = {"threadFlows": [{"locations": locations}]}
    if provenance.truncated:
        flow["message"] = {
            "text": "taint chain truncated to the steps nearest the source"
        }
    return flow


def _fix_key(finding: Finding, root: Path) -> tuple:
    """How the remediation engine addresses a finding's ``fixes[]``
    (matches :meth:`~repro.remediate.engine.RemediationReport.sarif_fixes`)."""
    return (
        _relative_uri(finding.file, root)["uri"],
        finding.line,
        finding.sink,
        finding.check,
        finding.policy or "sql",
    )


def _result(
    finding: Finding,
    page: str,
    root: Path,
    rule_index: dict[str, int],
    titles: dict[str, str],
    fixes: dict | None = None,
) -> dict:
    level = "error" if finding.category == "direct" else "warning"
    # SQL findings carry no policy id
    title = titles[finding.policy or "sql"]
    text = (
        f"{title}: {finding.category} untrusted data reaches "
        f"{finding.sink} and fails the {finding.check} check"
    )
    if finding.detail:
        text += f" — {finding.detail}"
    result: dict = {
        "ruleId": finding.check,
        "ruleIndex": rule_index.get(finding.check, -1),
        "level": level,
        "message": {"text": text},
        "locations": [_location(finding.file, finding.line, root)],
    }
    flow = _code_flow(finding, root)
    if flow is not None:
        result["codeFlows"] = [flow]
    if fixes:
        verified = fixes.get(_fix_key(finding, root))
        if verified:
            result["fixes"] = verified
    properties: dict = {
        "page": _relative_uri(page, root)["uri"],
        "sink": finding.sink,
        "nonterminal": finding.nonterminal,
        "labels": sorted(finding.labels),
    }
    if finding.witness:
        properties["witness"] = finding.witness
    if finding.example_query:
        properties["exampleQuery"] = finding.example_query
    # new-policy metadata; all falsy on the classic SQL path, so the
    # golden SARIF fixtures stay byte-identical
    if finding.witness_unavailable:
        properties["witnessUnavailable"] = True
    if finding.context:
        properties["context"] = finding.context
    if finding.policy:
        properties["policy"] = finding.policy
    result["properties"] = properties
    return result


def results_to_sarif(
    project_root: str | Path,
    page_results: list,
    policies: PolicyConfig = DEFAULT_CONFIG,
    fixes=None,
) -> dict:
    """The SARIF log for one run over ``page_results``
    (:class:`~repro.analysis.analyzer.PageResult` list, in page order).
    ``policies`` (a :class:`~.policies.config.PolicyConfig`) selects the
    rule catalog.  ``fixes``
    (``sqlciv fix``'s :meth:`~repro.remediate.engine.RemediationReport.\
sarif_fixes` mapping) attaches verified patches as SARIF ``fixes[]``;
    None — every path except ``sqlciv fix --sarif`` — leaves the
    document byte-identical to before the remediation engine existed."""
    root = Path(project_root).resolve()
    rules, rule_index, titles = _rule_catalog(policies)
    results = []
    for page_result in page_results:
        for report in page_result.reports:
            for finding in report.findings:
                if finding.safe:
                    continue
                results.append(
                    _result(
                        finding, page_result.page, root, rule_index,
                        titles, fixes,
                    )
                )
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "sqlciv",
                        "informationUri": (
                            "https://doi.org/10.1145/1250734.1250739"
                        ),
                        "rules": rules,
                    }
                },
                "originalUriBaseIds": {
                    "SRCROOT": {"uri": root.as_uri() + "/"}
                },
                "columnKind": "unicodeCodePoints",
                "results": results,
            }
        ],
    }


def render_sarif(
    project_root: str | Path,
    page_results: list,
    policies: PolicyConfig = DEFAULT_CONFIG,
    fixes=None,
) -> str:
    return json.dumps(
        results_to_sarif(project_root, page_results, policies, fixes),
        indent=2,
    )


def write_sarif(
    path: str | Path,
    project_root: str | Path,
    page_results: list,
    policies: PolicyConfig = DEFAULT_CONFIG,
    fixes=None,
) -> None:
    Path(path).write_text(
        render_sarif(project_root, page_results, policies, fixes) + "\n",
        encoding="utf-8",
    )


def validate_sarif(document: dict) -> list[str]:
    """Validation errors of ``document`` against the vendored 2.1.0
    schema (empty list = valid).  Requires the ``jsonschema`` dev
    dependency; raises :class:`ImportError` when it is missing so
    callers (tests, CI) can skip instead of silently passing."""
    import jsonschema

    validator = jsonschema.Draft7Validator(SARIF_2_1_0_SCHEMA)
    return [
        "/".join(str(part) for part in error.absolute_path) + ": " + error.message
        for error in validator.iter_errors(document)
    ]
