"""Reproduction of "Sound and Precise Analysis of Web Applications for
Injection Vulnerabilities" (Wassermann & Su, PLDI 2007).

Public API highlights:

>>> from repro import analyze_page, analyze_project
>>> reports, analysis = analyze_page("webapp/", "page.php")

See README.md for the architecture overview and DESIGN.md for the
paper-to-module map.

The names below resolve on first access (PEP 562), so ``import repro``
— and with it every ``import repro.<module>`` — loads no analysis code
until a caller asks for it (DESIGN §5n).
"""

from importlib import import_module

__version__ = "1.0.0"

#: public name → the module that defines it
_EXPORTS = {
    "AnalysisResult": "repro.analysis.stringtaint",
    "Finding": "repro.analysis.reports",
    "Hotspot": "repro.analysis.stringtaint",
    "HotspotReport": "repro.analysis.reports",
    "ProjectReport": "repro.analysis.reports",
    "StringTaintAnalysis": "repro.analysis.stringtaint",
    "analyze_page": "repro.analysis.analyzer",
    "analyze_project": "repro.analysis.analyzer",
    "entry_pages": "repro.analysis.analyzer",
}

__all__ = sorted(_EXPORTS) + ["__version__"]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
