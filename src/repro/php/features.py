"""Construct inventory for the soundness audit.

The paper's soundness claim (Theorem 3.4, "no report ⇒ no SQLCIV") is
*relative* to the constructs the string-taint analysis models.  This
walker makes that relativity explicit: it inventories every call,
include, and dynamic-language construct in a parsed file and classifies
each one as

* ``modeled``  — handled exactly (or by a dedicated sound model): the
  analysis's verdict is trustworthy here;
* ``widened``  — over-approximated but *sound*: the construct's model is
  a charset-closure/Σ* widening, so "verified" stays meaningful but
  extra false positives are possible;
* ``escaped``  — a soundness hole: the construct can change program
  state (or execute code) in ways the analysis does not see at all —
  ``eval``, variable-variables, dynamic calls, ``extract``, unresolved
  dynamic includes, calls to unmodeled functions, parse-error regions.

The inventory is purely syntactic; the audit pass
(:mod:`repro.analysis.audit`) correlates it with the run-time trail
(which builtins actually widened, which includes the
:class:`~repro.php.includes.IncludeResolver` resolved) to produce the
final diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis import sources
from repro.analysis.reports import ESCAPED, MODELED, WIDENED

from . import ast
from .builtins import (
    BUILTINS,
    NO_EFFECT,
    PREDICATE_FUNCTIONS,
    WIDENING_BUILTINS,
    literal_str,
    predicate_language,
)


@dataclass(frozen=True)
class Feature:
    """One occurrence of an inventoried construct."""

    kind: str            # "eval", "variable-variable", "dynamic-call",
                         # "dynamic-include", "include", "preg-replace-eval",
                         # "extract", "unknown-builtin", "widened-builtin",
                         # "builtin", "user-function", "sink", "source"
    classification: str  # MODELED | WIDENED | ESCAPED
    file: str
    line: int
    name: str = ""       # function/builtin name, when there is one
    detail: str = ""


#: code-evaluating constructs: the evaluated string is a whole unanalyzed
#: program — the definition of a soundness hole
EVAL_FUNCTIONS = frozenset({"eval", "create_function", "assert"})

#: callable-dispatch builtins whose callee the analysis never resolves
DYNAMIC_CALL_FUNCTIONS = frozenset(
    """
    call_user_func call_user_func_array call_user_method
    call_user_method_array forward_static_call forward_static_call_array
    array_map array_walk array_filter usort uasort uksort
    preg_replace_callback
    """.split()
)

#: builtins that conjure variables the analysis cannot name
SCOPE_ESCAPE_FUNCTIONS = frozenset(
    {"extract", "parse_str", "import_request_variables"}
)

#: names the interpreter handles specially (not via the builtin registry)
_INTERPRETER_SPECIALS = frozenset(
    {"define", "constant", "defined", "exit"}
)

_INCLUDE_NAMES = frozenset(
    {"include", "include_once", "require", "require_once"}
)


def _pattern_flags(pattern_text: str) -> str:
    """The trailing flags of a delimited PHP regex ('/x/ie' → 'ie')."""
    if len(pattern_text) < 2:
        return ""
    open_delim = pattern_text[0]
    close_delim = {"(": ")", "[": "]", "{": "}", "<": ">"}.get(
        open_delim, open_delim
    )
    end = pattern_text.rfind(close_delim)
    if end <= 0:
        return ""
    return pattern_text[end + 1 :]


def _has_eval_modifier(pattern_node: ast.Expr | None) -> bool:
    """True if a literal ``preg_replace`` pattern carries the ``/e``
    modifier (PHP < 7: the *replacement* is evaluated as code)."""
    candidates: list[ast.Expr | None]
    if isinstance(pattern_node, ast.ArrayLit):
        candidates = [value for _, value in pattern_node.items]
    else:
        candidates = [pattern_node]
    for node in candidates:
        text = literal_str(node)
        if text is not None and "e" in _pattern_flags(text):
            return True
    return False


def _classify_call(
    call: ast.Call, file: str, known_functions: frozenset[str] | set[str]
) -> Feature:
    name = call.name
    make = lambda kind, classification, detail="": Feature(  # noqa: E731
        kind=kind,
        classification=classification,
        file=file,
        line=call.line,
        name=name,
        detail=detail,
    )
    if name in EVAL_FUNCTIONS:
        return make("eval", ESCAPED, "evaluated code is not analyzed")
    if name in DYNAMIC_CALL_FUNCTIONS:
        return make("dynamic-call", ESCAPED, "callee not statically resolved")
    if name in SCOPE_ESCAPE_FUNCTIONS:
        return make(
            "extract", ESCAPED, "writes variables the analysis cannot name"
        )
    if name in ("preg_replace", "preg_filter") and _has_eval_modifier(
        call.args[0] if call.args else None
    ):
        return make(
            "preg-replace-eval", ESCAPED, "/e evaluates the replacement as code"
        )
    if name in _INCLUDE_NAMES:
        if call.args and isinstance(call.args[0], ast.Literal):
            return make("include", MODELED)
        return make(
            "dynamic-include", ESCAPED, "include path is not a literal"
        )
    if name in known_functions:
        return make("user-function", MODELED)
    if sources.query_argument_index(name) is not None:
        return make("sink", MODELED)
    if sources.is_fetch_function(name) is not None:
        return make("source", MODELED)
    if name in PREDICATE_FUNCTIONS:
        if predicate_language(call) is not None:
            return make("predicate", MODELED)
        return make(
            "predicate",
            WIDENED,
            "condition not statically refinable; both branches kept",
        )
    if name in _INTERPRETER_SPECIALS or name in NO_EFFECT:
        return make("builtin", MODELED)
    if name in WIDENING_BUILTINS:
        return make(
            "widened-builtin", WIDENED, "modeled by charset-closure widening"
        )
    if name in BUILTINS:
        return make("builtin", MODELED)
    return make(
        "unknown-builtin",
        ESCAPED,
        "no model: return over-approximated, side effects invisible",
    )


def inventory_file(
    tree: ast.File, known_functions: frozenset[str] | set[str] = frozenset()
) -> list[Feature]:
    """Every inventoried construct in one parsed file.

    ``known_functions`` holds the (lower-cased) names of user-defined
    functions anywhere in the include closure, so calls to them are not
    misreported as unmodeled builtins.  The candidate nodes come from
    the tree's own :meth:`~repro.php.ast.File.facts`, so a file shared
    by many pages is walked once; only their classification is per page.
    """
    file = tree.path
    feats: list[Feature] = []
    for node in tree.facts().constructs:
        if isinstance(node, ast.Call):
            feats.append(_classify_call(node, file, known_functions))
        elif isinstance(node, ast.VarVar):
            feats.append(
                Feature(
                    kind="variable-variable",
                    classification=ESCAPED,
                    file=file,
                    line=node.line,
                    detail="target variable unknown: reads and writes untracked",
                )
            )
        elif isinstance(node, ast.DynCall):
            feats.append(
                Feature(
                    kind="dynamic-call",
                    classification=ESCAPED,
                    file=file,
                    line=node.line,
                    detail="call through a variable: callee unknown",
                )
            )
        elif isinstance(node, ast.MethodCall) and node.name.startswith("$"):
            feats.append(
                Feature(
                    kind="dynamic-call",
                    classification=ESCAPED,
                    file=file,
                    line=node.line,
                    name=node.name,
                    detail="dynamic method name: callee unknown",
                )
            )
        elif isinstance(node, ast.Include):
            if isinstance(node.path, ast.Literal):
                feats.append(
                    Feature(
                        kind="include",
                        classification=MODELED,
                        file=file,
                        line=node.line,
                    )
                )
            else:
                # provisional: the audit pass downgrades this to WIDENED
                # when the IncludeResolver found ≥1 candidate file
                feats.append(
                    Feature(
                        kind="dynamic-include",
                        classification=ESCAPED,
                        file=file,
                        line=node.line,
                        detail="include path computed at run time",
                    )
                )
    return feats


def escapes(feats: list[Feature]) -> list[Feature]:
    return [f for f in feats if f.classification == ESCAPED]


def widenings(feats: list[Feature]) -> list[Feature]:
    return [f for f in feats if f.classification == WIDENED]
