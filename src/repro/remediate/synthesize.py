"""Candidate-patch synthesis from finding provenance.

Both candidate kinds are pure in-place byte splices (no line is ever
inserted), computed from the spans the lexer/parser now record on every
faithfully-sourced AST node:

* **Prepared rewrite** — the sink call's query argument is flattened
  into literal/hole parts; when every hole sits in a parameterizable
  position (immediately between matching string-literal quotes, or in
  an unquoted value position), the whole argument is replaced by
  ``sqlciv_prepare('<template>', array(<holes…>))`` where the template
  carries ``?`` placeholders.  ``sqlciv_prepare`` is modeled in
  :mod:`repro.php.builtins` as returning its (untainted) template, so
  re-analysis of the patched page proves the rewrite safe, and the
  concrete oracle executes it as the taint-free template.
* **Sanitizer insertion** — the finding's provenance source events
  carry the byte span of the source *expression* (``$_GET['id']``);
  the policy-designated sanitizer is wrapped around that expression at
  its latest usable chain point.  Spans inside double-quoted
  interpolations are rejected (a call is not valid inside a string
  literal), as are sources without a faithful span.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field

from repro.analysis import sources as sink_tables
from repro.analysis.policies.config import DEFAULT_CONFIG, PolicyConfig
from repro.php import ast

#: machine-readable reasons a candidate kind is inapplicable
REASON_SINK_NOT_FOUND = "sink-call-not-found"
REASON_NO_SPAN = "sink-argument-span-unavailable"
REASON_NO_HOLES = "query-argument-is-literal"
REASON_ALL_HOLES = "query-has-no-literal-context"
REASON_MID_LITERAL = "hole-inside-string-literal"
REASON_UNRENDERABLE = "hole-expression-unrenderable"
REASON_SOURCE_NO_SPAN = "source-span-unavailable"
REASON_SOURCE_IN_INTERP = "source-inside-interpolation"
REASON_NO_SANITIZER = "no-designated-sanitizer"
REASON_NO_SOURCES = "no-provenance-sources"

#: the deployable prepared-statement shim the rewrite targets; a PHP
#: implementation binds the holes through a real parameterized API
PREPARE_SHIM = "sqlciv_prepare"

#: policy/check → sanitizer.  For the SQL cascade the choice follows the
#: check that fired: escaping only confines data *inside* a string
#: literal, so unquoted positions (numeric, derivability, attack-string,
#: tokenization) get the stronger ``intval`` coercion instead.
_SQL_QUOTED_CHECKS = frozenset({"odd-quotes", "literal-break"})


@dataclass
class Patch:
    """One candidate fix: byte splices against a single source file."""

    file: str                      # absolute path of the patched file
    kind: str                      # "prepared" | "sanitize"
    #: non-overlapping ``(start, end, replacement)`` byte splices
    replacements: list[tuple[int, int, str]] = field(default_factory=list)
    description: str = ""

    def key(self) -> tuple:
        return (self.file, tuple(self.replacements))

    def apply(self, text: str) -> str:
        out = text
        for start, end, replacement in sorted(
            self.replacements, reverse=True
        ):
            out = out[:start] + replacement + out[end:]
        return out

    def unified_diff(self, original: str, rel_file: str) -> str:
        patched = self.apply(original)
        lines = difflib.unified_diff(
            original.splitlines(keepends=True),
            patched.splitlines(keepends=True),
            fromfile=f"a/{rel_file}",
            tofile=f"b/{rel_file}",
        )
        return "".join(lines)


def php_single_quote(text: str) -> str:
    """``text`` as a PHP single-quoted string literal."""
    return "'" + text.replace("\\", "\\\\").replace("'", "\\'") + "'"


# ---------------------------------------------------------------------------
# expression rendering (holes must become valid stand-alone PHP)
# ---------------------------------------------------------------------------


def render_expr(expr: ast.Expr) -> str | None:
    """Canonical PHP source for the expression subset holes draw on, or
    None when the expression has no faithful stand-alone rendering.

    Span text alone is not enough: a simple-interpolation hole like
    ``"$row[name]"`` spans ``$row[name]``, which *outside* a string
    parses as an array index by the constant ``name``.  Rendering from
    the AST always produces the quoted form.
    """
    if isinstance(expr, ast.Literal):
        value = expr.value
        if isinstance(value, bool):
            return "true" if value else "false"
        if value is None:
            return "null"
        if isinstance(value, (int, float)):
            return str(value)
        if isinstance(value, str):
            return php_single_quote(value)
        return None
    if isinstance(expr, ast.Var):
        return f"${expr.name}"
    if isinstance(expr, ast.ArrayDim):
        base = render_expr(expr.base)
        if base is None or expr.index is None:
            return None
        index = render_expr(expr.index)
        if index is None:
            return None
        return f"{base}[{index}]"
    if isinstance(expr, ast.Prop):
        base = render_expr(expr.base)
        return None if base is None else f"{base}->{expr.name}"
    if isinstance(expr, (ast.Call, ast.MethodCall, ast.StaticCall)):
        args = []
        for arg in expr.args:
            rendered = render_expr(arg)
            if rendered is None:
                return None
            args.append(rendered)
        arglist = ", ".join(args)
        if isinstance(expr, ast.Call):
            return f"{expr.name}({arglist})"
        if isinstance(expr, ast.StaticCall):
            return f"{expr.class_name}::{expr.name}({arglist})"
        base = render_expr(expr.obj)
        return None if base is None else f"{base}->{expr.name}({arglist})"
    if isinstance(expr, ast.BinOp):
        left = render_expr(expr.left)
        right = render_expr(expr.right)
        if left is None or right is None:
            return None
        return f"({left} {expr.op} {right})"
    if isinstance(expr, ast.UnaryOp):
        operand = render_expr(expr.operand)
        return None if operand is None else f"{expr.op}{operand}"
    if isinstance(expr, ast.Cast):
        operand = render_expr(expr.operand)
        return None if operand is None else f"({expr.kind}){operand}"
    if isinstance(expr, ast.ConstFetch):
        return expr.name
    if isinstance(expr, ast.Suppress):
        operand = render_expr(expr.operand)
        return None if operand is None else f"@{operand}"
    return None


# ---------------------------------------------------------------------------
# sink-call location
# ---------------------------------------------------------------------------


def _sink_argument_index(sink: str, policies: PolicyConfig) -> int | None:
    """Which argument of ``sink`` carries the checked string."""
    if sink.startswith("->"):
        return 0
    index = sink_tables.query_argument_index(sink)
    if index is not None:
        return index
    entries = policies.function_sink_table().get(sink)
    return entries[0][1] if entries else None


def find_sink_argument(
    tree: ast.File, line: int, sink: str, policies: PolicyConfig = DEFAULT_CONFIG
) -> ast.Expr | None:
    """The query-argument expression of the ``sink`` call at ``line``."""
    index = _sink_argument_index(sink, policies)
    if index is None:
        return None
    for node in ast.walk(tree):
        if node.line != line:
            continue
        if sink.startswith("->"):
            if (
                isinstance(node, ast.MethodCall)
                and f"->{node.name}" == sink
                and len(node.args) > index
            ):
                return node.args[index]
        elif (
            isinstance(node, ast.Call)
            and node.name == sink
            and len(node.args) > index
        ):
            return node.args[index]
    return None


def interp_spans(tree: ast.File) -> list[tuple[int, int]]:
    """Byte spans of every double-quoted interpolation in ``tree`` —
    positions where inserting a function call is not valid PHP."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Interp) and node.span is not None:
            spans.append(node.span)
    return spans


# ---------------------------------------------------------------------------
# prepared-statement rewrite
# ---------------------------------------------------------------------------


def flatten_query(expr: ast.Expr) -> list[tuple[str, object]]:
    """``expr`` as an ordered list of ``("lit", text)`` / ``("hole",
    subexpr)`` parts, flattening concatenation and interpolation."""
    parts: list[tuple[str, object]] = []

    def go(node: ast.Expr) -> None:
        if isinstance(node, ast.Literal) and isinstance(
            node.value, (str, int, float)
        ):
            text = node.value if isinstance(node.value, str) else str(node.value)
            if parts and parts[-1][0] == "lit":
                parts[-1] = ("lit", parts[-1][1] + text)
            else:
                parts.append(("lit", text))
        elif isinstance(node, ast.BinOp) and node.op == ".":
            go(node.left)
            go(node.right)
        elif isinstance(node, ast.Interp):
            for part in node.parts:
                go(part)
        elif isinstance(node, ast.Suppress):
            go(node.operand)
        else:
            parts.append(("hole", node))

    go(expr)
    return parts


def _scan_literal(text: str, in_string: str | None) -> str | None:
    """Thread SQL string-literal state through a literal template chunk.
    ``in_string`` is the open quote character or None; backslash escapes
    and doubled quotes keep the literal open."""
    i = 0
    while i < len(text):
        char = text[i]
        if in_string is None:
            if char in ("'", '"'):
                in_string = char
        else:
            if char == "\\":
                i += 2
                continue
            if char == in_string:
                in_string = None
        i += 1
    return in_string


def build_template(
    parts: list[tuple[str, object]],
) -> tuple[str, list[ast.Expr], str | None]:
    """``(template, hole_exprs, failure_reason)`` for a prepared rewrite.

    A hole immediately between matching quotes swallows them (``'…'`` →
    ``?``); an unquoted hole becomes a bare ``?``.  A hole in the middle
    of a string literal (``'%$x%'``) cannot be parameterized — prepared
    statements bind whole values, not literal fragments.
    """
    template: list[str] = []
    holes: list[ast.Expr] = []
    in_string: str | None = None
    index = 0
    while index < len(parts):
        kind, payload = parts[index]
        if kind == "lit":
            in_string = _scan_literal(payload, in_string)
            template.append(payload)
            index += 1
            continue
        # a hole
        expr = payload
        if in_string is not None:
            # parameterizable only when the hole IS the whole literal:
            # the chunk before the hole ends with the bare opening quote
            # and the next literal chunk starts with the closing quote
            next_lit = (
                parts[index + 1][1]
                if index + 1 < len(parts) and parts[index + 1][0] == "lit"
                else None
            )
            if (
                template
                and template[-1].endswith(in_string)
                and next_lit is not None
                and next_lit.startswith(in_string)
            ):
                template[-1] = template[-1][:-1]          # swallow opener
                template.append("?")
                holes.append(expr)
                parts[index + 1] = ("lit", next_lit[1:])  # swallow closer
                in_string = None
                index += 1
                continue
            return "", [], REASON_MID_LITERAL
        template.append("?")
        holes.append(expr)
        index += 1
    return "".join(template), holes, None


def synthesize_prepared(
    source_text: str,
    tree: ast.File,
    finding,
    policies: PolicyConfig = DEFAULT_CONFIG,
) -> tuple[Patch | None, str]:
    """The prepared-statement candidate for ``finding``, or a reason."""
    arg = find_sink_argument(tree, finding.line, finding.sink, policies)
    if arg is None:
        return None, REASON_SINK_NOT_FOUND
    if arg.span is None:
        return None, REASON_NO_SPAN
    parts = flatten_query(arg)
    holes_present = any(kind == "hole" for kind, _ in parts)
    if not holes_present:
        return None, REASON_NO_HOLES
    if not any(kind == "lit" and text.strip() for kind, text in parts):
        # replacing the whole query with one parameter is not a fix —
        # there is no trusted SQL context to prepare
        return None, REASON_ALL_HOLES
    template, holes, reason = build_template(parts)
    if reason is not None:
        return None, reason
    rendered = []
    for hole in holes:
        text = render_expr(hole)
        if text is None:
            return None, REASON_UNRENDERABLE
        rendered.append(text)
    replacement = (
        f"{PREPARE_SHIM}({php_single_quote(template)}, "
        f"array({', '.join(rendered)}))"
    )
    start, end = arg.span
    patch = Patch(
        file=finding.file,
        kind="prepared",
        replacements=[(start, end, replacement)],
        description=(
            f"rewrite the {finding.sink} query argument as a prepared "
            f"statement with {len(holes)} bound parameter(s)"
        ),
    )
    return patch, ""


# ---------------------------------------------------------------------------
# sanitizer insertion
# ---------------------------------------------------------------------------


def sanitizer_for(finding) -> tuple[str, str] | None:
    """``(open, close)`` wrapping text for the policy-designated
    sanitizer, or None when the policy has no insertable sanitizer."""
    policy = finding.policy or "sql"
    if policy == "sql":
        if finding.check in _SQL_QUOTED_CHECKS:
            return ("mysql_real_escape_string(", ")")
        return ("intval(", ")")
    if policy in ("xss", "xss-context"):
        return ("htmlspecialchars(", ", ENT_QUOTES)")
    if policy == "shell":
        return ("escapeshellarg(", ")")
    if policy == "path":
        return ("basename(", ")")
    return None   # eval: no sanitizer confines arbitrary code


def synthesize_sanitizer(
    finding,
    read_source,
    parse_source,
) -> tuple[Patch | None, str]:
    """Wrap every provenance source expression in the designated
    sanitizer.  ``read_source(file) -> str`` and ``parse_source(file) ->
    ast.File | None`` let the engine share its file/AST caches.
    """
    wrap = sanitizer_for(finding)
    if wrap is None:
        return None, REASON_NO_SANITIZER
    provenance = finding.provenance
    events = list(provenance.sources) if provenance is not None else []
    if not events:
        return None, REASON_NO_SOURCES
    opener, closer = wrap
    by_file: dict[str, list[tuple[int, int]]] = {}
    for event in events:
        span = event.get("span")
        file = event.get("file", "")
        if not file or not span or len(span) != 2 or span[0] < 0:
            return None, REASON_SOURCE_NO_SPAN
        tree = parse_source(file)
        if tree is None:
            return None, REASON_SOURCE_NO_SPAN
        for lo, hi in interp_spans(tree):
            if lo < span[0] and span[1] <= hi:
                return None, REASON_SOURCE_IN_INTERP
        spans = by_file.setdefault(file, [])
        if (span[0], span[1]) not in spans:
            spans.append((span[0], span[1]))
    patches: list[tuple[int, int, str]] = []
    target_file = None
    if len(by_file) != 1:
        # one patch object per file keeps splices simple; multi-file
        # chains fall back to the guard (rare: cross-include sources)
        return None, REASON_SOURCE_NO_SPAN
    (target_file, spans), = by_file.items()
    text = read_source(target_file)
    for start, end in sorted(spans):
        original = text[start:end]
        patches.append((start, end, f"{opener}{original}{closer}"))
    patch = Patch(
        file=target_file,
        kind="sanitize",
        replacements=patches,
        description=(
            f"wrap {len(patches)} untrusted source expression(s) in "
            f"{opener.rstrip('(')}"
        ),
    )
    return patch, ""
