"""Transducer/semantic models for PHP's library functions.

The paper's implementation "added specifications for 243 PHP functions"
(§4).  This module is that catalog, organized by modeling strategy:

* **transducers** — sanitizer-relevant string functions modeled exactly
  as FSTs (``addslashes``, ``str_replace``, class-replace
  ``preg_replace`` forms, case mapping, ``stripslashes``, …);
* **regular abstractions** — functions whose *output language* is a known
  regular set (``md5`` → 32 hex chars, ``intval`` → an integer,
  ``urlencode`` → percent-encoded alphabet, …); taint is preserved where
  the output still depends on the input;
* **structure models** — ``sprintf``, ``implode``, ``explode``
  (Figure 8), ``substr``, ``str_repeat``, ``strrev``;
* **predicates** — condition languages for ``preg_match``/``ereg``/
  ``is_numeric``/``ctype_*`` used by branch refinement (§3.1.2);
* **widening fallbacks** — everything string-expanding or unmodellable
  (``urldecode``, array ``strtr``) soundly widens to a charset closure
  or Σ*, keeping taint.

Handlers receive the :class:`~repro.analysis.absdom.GrammarBuilder`,
the abstract argument values, and the raw AST argument nodes (so models
can exploit literal arguments, which is where all the precision comes
from — a ``str_replace`` with a dynamic pattern cannot be an FST).
"""

from __future__ import annotations

import base64
import binascii
import hashlib
import html as _html
import math
import re
import time as _time
import zlib
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from repro.lang.charset import CharSet
from repro.lang.fsa import NFA
from repro.lang.fst import COPY, FST
from repro.lang.grammar import Lit
from repro.lang.regex import (
    Pattern,
    RegexError,
    full_match_language,
    parse_php_regex,
    parse_regex,
    search_language,
)
from repro.analysis.absdom import GrammarBuilder
from repro.analysis.values import ArrVal, StrVal, Value

from . import ast

Handler = Callable[[GrammarBuilder, list[Value | None], list[ast.Expr]], Value | None]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def literal_str(node: ast.Expr | None) -> str | None:
    """The literal string value of an AST argument, if statically known."""
    if isinstance(node, ast.Literal) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.Literal) and isinstance(node.value, (int, float)):
        return _php_number_str(node.value)
    return None


def _php_number_str(value: int | float) -> str:
    if isinstance(value, int):
        return str(value)
    return repr(value)


def _arg(values: list[Value | None], index: int) -> Value | None:
    return values[index] if index < len(values) else None


def _str_arg(builder: GrammarBuilder, values: list[Value | None], index: int) -> StrVal:
    return builder.to_str(_arg(values, index))


def _keep_taint(builder: GrammarBuilder, source: StrVal, result: StrVal) -> StrVal:
    for label in builder.labels_of(source):
        builder.grammar.add_label(result.nt, label)
    return result


def regular_result(builder: GrammarBuilder, pattern: str, hint: str) -> StrVal:
    return builder.from_nfa(full_match_language(parse_regex(pattern)), hint)


def _dynamic_fallback(
    builder: GrammarBuilder,
    values: list[Value | None],
    taint_args: tuple[int, ...],
    hint: str,
) -> StrVal:
    """Σ* carrying the taint of the given arguments — the only sound
    abstraction when a call can emit characters outside its subject's
    alphabet (dynamic replacements, decoders, case extension, …)."""
    operands = [
        builder.to_str(_arg(values, index))
        for index in taint_args
        if _arg(values, index) is not None
    ]
    result = builder.any_string(hint=hint)
    return builder.taint_through(result, operands, hint)


# The "all substrings" transducer: skip a prefix, copy a window, skip the
# suffix.  Exact for substr() with unknown bounds.
@lru_cache(maxsize=64)
def _substring_fst() -> FST:
    fst = FST()
    pre, mid, post = fst.new_state(), fst.new_state(), fst.new_state()
    anything = CharSet.any_char()
    fst.add_transition(pre, anything, ("",), pre)
    fst.add_transition(pre, anything, (COPY,), mid)
    fst.add_transition(mid, anything, (COPY,), mid)
    fst.add_transition(mid, anything, ("",), post)
    fst.add_transition(post, anything, ("",), post)
    return fst


@lru_cache(maxsize=64)
def _between_delims_fst(delim: str) -> FST:
    """Figure 8: the pieces ``explode(delim, subject)`` returns, for a
    single-character delimiter (the common case)."""
    fst = FST()
    start, skip, mid, done = (fst.new_state() for _ in range(4))
    delim_cs = CharSet.of(delim)
    other = delim_cs.complement()
    anything = CharSet.any_char()
    # still before our piece: swallow anything, a delimiter may start it
    fst.add_transition(start, anything, ("",), skip)
    fst.add_transition(start, other, (COPY,), mid)
    # the FIRST piece can end right away at a delimiter (empty piece) …
    fst.add_transition(start, delim_cs, ("",), done)
    # … and a delimiter at position 0 can also START our piece
    fst.add_transition(start, delim_cs, ("",), mid)
    fst.add_transition(skip, anything, ("",), skip)
    fst.add_transition(skip, delim_cs, ("",), mid)
    # inside our piece: copy non-delimiters; a delimiter ends it
    fst.add_transition(mid, other, (COPY,), mid)
    fst.add_transition(mid, delim_cs, ("",), done)
    fst.add_transition(done, anything, ("",), done)
    fst.accepts = {start, mid, done}
    return fst


def _reverse_value(builder: GrammarBuilder, value: StrVal) -> StrVal:
    """Exact language reversal: reverse every rhs and every literal."""
    scope = builder.grammar.subgrammar(builder.force(value).nt)
    mapping = {nt: builder.fresh(f"rev.{nt.name}") for nt in scope.productions}
    for nt, rules in scope.productions.items():
        for rhs in rules:
            reversed_rhs = []
            for symbol in reversed(rhs):
                if isinstance(symbol, Lit):
                    reversed_rhs.append(Lit(symbol.text[::-1]))
                elif symbol in mapping:
                    reversed_rhs.append(mapping[symbol])
                else:
                    reversed_rhs.append(symbol)
            builder.grammar.add(mapping[nt], tuple(reversed_rhs))
        for label in scope.labels.get(nt, ()):
            builder.grammar.add_label(mapping[nt], label)
    return StrVal(mapping[value.nt])


# ---------------------------------------------------------------------------
# character sets for the escaping family
# ---------------------------------------------------------------------------

ADDSLASHES_CHARS = CharSet.of("'\"\\\0")
MYSQL_ESCAPE_CHARS = CharSet.of("'\"\\\0\n\r\x1a")
REGEX_SPECIALS = CharSet.of(".\\+*?[^]$(){}=!<>|:-#/")
QUOTEMETA_CHARS = CharSet.of(".\\+*?[^]$()")


@lru_cache(maxsize=64)
def _addslashes_fst() -> FST:
    """PHP ``addslashes``: NUL becomes the two characters ``\\0`` (a
    backslash and a digit zero, *not* a backslash-prefixed NUL — the
    differential oracle caught the ``escape_chars`` model getting this
    wrong); quote and backslash get a backslash prefix."""
    return FST.char_map(
        [
            (CharSet.of("\0"), ("\\0",)),
            (ADDSLASHES_CHARS, ("\\", COPY)),
        ]
    )


@lru_cache(maxsize=64)
def _mysql_escape_fst() -> FST:
    """``mysql_real_escape_string``: like addslashes, but the control
    characters rewrite to their *letter* escapes (``\\n``, ``\\r``,
    ``\\Z``) instead of a backslash-prefixed control byte."""
    return FST.char_map(
        [
            (CharSet.of("\0"), ("\\0",)),
            (CharSet.of("\n"), ("\\n",)),
            (CharSet.of("\r"), ("\\r",)),
            (CharSet.of("\x1a"), ("\\Z",)),
            (MYSQL_ESCAPE_CHARS, ("\\", COPY)),
        ]
    )


@lru_cache(maxsize=64)
def _pg_escape_fst() -> FST:
    """``pg_escape_string`` doubles quotes and backslashes (SQL-standard
    quoting), unlike the MySQL family's backslash-escaping."""
    return FST.char_map(
        [
            (CharSet.of("'"), ("''",)),
            (CharSet.of("\\"), ("\\\\",)),
        ]
    )


@lru_cache(maxsize=64)
def _sqlite_escape_fst() -> FST:
    return FST.char_map([(CharSet.of("'"), ("''",))])


@lru_cache(maxsize=64)
def _escapeshellarg_fst() -> FST:
    """The *body* rewrite of PHP ``escapeshellarg``: every embedded
    single quote becomes ``'\\''`` (close, escaped quote, reopen); the
    surrounding quotes are added by the handler as trusted literals."""
    return FST.char_map([(CharSet.of("'"), ("'\\''",))])


@lru_cache(maxsize=64)
def _stripslashes_fst() -> FST:
    fst = FST()
    normal, escaped = fst.new_state(), fst.new_state()
    backslash = CharSet.of("\\")
    zero = CharSet.of("0")
    fst.add_transition(normal, backslash, ("",), escaped)
    fst.add_transition(normal, backslash.complement(), (COPY,), normal)
    # ``\0`` decodes to NUL (the inverse of addslashes); every other
    # escaped character is emitted verbatim
    fst.add_transition(escaped, zero, ("\0",), normal)
    fst.add_transition(escaped, zero.complement(), (COPY,), normal)
    return fst


@lru_cache(maxsize=64)
def _htmlspecialchars_fst(quote_style: str) -> FST:
    mapping = [
        (CharSet.of("&"), ("&amp;",)),
        (CharSet.of("<"), ("&lt;",)),
        (CharSet.of(">"), ("&gt;",)),
    ]
    if quote_style in ("ENT_COMPAT", "ENT_QUOTES"):
        mapping.append((CharSet.of('"'), ("&quot;",)))
    if quote_style == "ENT_QUOTES":
        mapping.append((CharSet.of("'"), ("&#039;",)))
    return FST.char_map(mapping)


# ---------------------------------------------------------------------------
# transducer-family handlers
# ---------------------------------------------------------------------------


def _h_addslashes(builder, values, nodes):
    subject = _str_arg(builder, values, 0)
    return builder.image(subject, _addslashes_fst(), "addslashes")


def _h_stripslashes(builder, values, nodes):
    subject = _str_arg(builder, values, 0)
    return builder.image(subject, _stripslashes_fst(), "stripslashes")


def _h_mysql_escape(builder, values, nodes):
    subject = _str_arg(builder, values, 0)
    return builder.image(subject, _mysql_escape_fst(), "sqlescape")


def _h_mysqli_escape(builder, values, nodes):
    # mysqli_real_escape_string($link, $string): subject is argument 1
    subject = _str_arg(builder, values, 1 if len(values) > 1 else 0)
    return builder.image(subject, _mysql_escape_fst(), "sqlescape")


def _h_pg_escape(builder, values, nodes):
    subject = _str_arg(builder, values, 0)
    return builder.image(subject, _pg_escape_fst(), "pgescape")


def _h_sqlite_escape(builder, values, nodes):
    subject = _str_arg(builder, values, 0)
    return builder.image(subject, _sqlite_escape_fst(), "sqlescape")


def _h_escapeshellarg(builder, values, nodes):
    """``escapeshellarg($s)`` = ``"'" . body . "'"`` with quotes in the
    body escaped.  The result nonterminal is re-labeled with the
    subject's taint so the *maximal* labeled nonterminal the shell
    policy checks covers the whole quoted argument — that is what makes
    the sanitized form pass the shell-breakout automaton.  (Literal
    nonterminals are memoized/shared, so labels go on the fresh outer
    concat, never on the quote literals.)"""
    subject = _str_arg(builder, values, 0)
    body = builder.image(subject, _escapeshellarg_fst(), "shellarg")
    quote = builder.literal("'")
    result = builder.concat(builder.concat(quote, body), quote)
    for label in builder.labels_of(body):
        builder.grammar.add_label(result.nt, label)
    return result


def _h_htmlspecialchars(builder, values, nodes):
    subject = _str_arg(builder, values, 0)
    style = "ENT_COMPAT"
    if len(nodes) > 1 and isinstance(nodes[1], ast.ConstFetch):
        style = nodes[1].name
    return builder.image(subject, _htmlspecialchars_fst(style), "htmlspecial")


def _h_strtolower(builder, values, nodes):
    return builder.image(_str_arg(builder, values, 0), FST.lowercase(), "lower")


def _h_strtoupper(builder, values, nodes):
    return builder.image(_str_arg(builder, values, 0), FST.uppercase(), "upper")


def _h_preg_quote(builder, values, nodes):
    subject = _str_arg(builder, values, 0)
    return builder.image(subject, FST.escape_chars(REGEX_SPECIALS), "pregquote")


def _h_quotemeta(builder, values, nodes):
    # quotemeta escapes a strictly smaller set than preg_quote; the model
    # is an exact image, so using preg_quote's charset would *change* the
    # output language, not over-approximate it
    subject = _str_arg(builder, values, 0)
    return builder.image(subject, FST.escape_chars(QUOTEMETA_CHARS), "quotemeta")


@lru_cache(maxsize=64)
def _nl2br_fst() -> FST:
    """``nl2br`` breaks on ``\\r\\n`` / ``\\n\\r`` *pairs* (one ``<br />``
    per pair, inserted before it) as well as on lone ``\\n`` / ``\\r`` —
    a per-character map would split a CRLF into two breaks."""
    fst = FST()
    normal, seen_cr, seen_lf = fst.new_state(), fst.new_state(), fst.new_state()
    cr, lf = CharSet.of("\r"), CharSet.of("\n")
    other = CharSet.of("\r\n").complement()
    fst.add_transition(normal, other, (COPY,), normal)
    fst.add_transition(normal, cr, ("",), seen_cr)
    fst.add_transition(normal, lf, ("",), seen_lf)
    fst.add_transition(seen_cr, lf, ("<br />\r\n",), normal)
    fst.add_transition(seen_cr, cr, ("<br />\r",), seen_cr)
    fst.add_transition(seen_cr, other, ("<br />\r", COPY), normal)
    fst.add_transition(seen_lf, cr, ("<br />\n\r",), normal)
    fst.add_transition(seen_lf, lf, ("<br />\n",), seen_lf)
    fst.add_transition(seen_lf, other, ("<br />\n", COPY), normal)
    fst.final_output[seen_cr] = "<br />\r"
    fst.final_output[seen_lf] = "<br />\n"
    return fst


def _h_nl2br(builder, values, nodes):
    subject = _str_arg(builder, values, 0)
    return builder.image(subject, _nl2br_fst(), "nl2br")


def _h_trim(builder, values, nodes):
    # Sound over-approximation: output ⊆ input-language ∪ edge-trimmed
    # strings; we return input ∪ substring-language restricted to losing
    # only whitespace — simplest sound model is the identity union the
    # substring language; whitespace precision rarely matters for SQLCIVs.
    subject = _str_arg(builder, values, 0)
    trimmed = builder.image(subject, _substring_fst(), "trim")
    return builder.join([subject, trimmed], "trim∪")


def _h_str_replace(builder, values, nodes):
    search_node = nodes[0] if nodes else None
    replace_node = nodes[1] if len(nodes) > 1 else None
    subject = _str_arg(builder, values, 2)

    pairs = _replace_pairs(search_node, replace_node)
    if pairs is None:
        # Dynamic pattern/replacement: the replacement's characters are
        # not bounded by the subject's alphabet, so a charset-closure
        # widening of the subject would *miss* strings the call can
        # really produce — only Σ* (with every input's taint) is sound.
        return _dynamic_fallback(builder, values, (0, 1, 2), "replace▽")
    result = subject
    for search, replacement in pairs:
        if not search:
            continue
        result = builder.image(result, FST.replace_string(search, replacement), "replace")
    return result


def _replace_pairs(
    search_node: ast.Expr | None, replace_node: ast.Expr | None
) -> list[tuple[str, str]] | None:
    """Literal (search, replacement) pairs for str_replace, handling the
    array forms (the paper had to expand those by hand; we support them)."""

    def literal_list(node):
        if isinstance(node, ast.ArrayLit):
            items = []
            for key, value in node.items:
                text = literal_str(value)
                if text is None:
                    return None
                items.append(text)
            return items
        text = literal_str(node)
        return None if text is None else [text]

    searches = literal_list(search_node)
    if searches is None:
        return None
    replacements = literal_list(replace_node)
    if replacements is None:
        return None
    if isinstance(replace_node, ast.ArrayLit):
        padded = replacements + [""] * (len(searches) - len(replacements))
    else:
        padded = replacements * len(searches)
    return list(zip(searches, padded))


def _h_preg_replace(builder, values, nodes, php_delimiters: bool = True):
    pattern_text = literal_str(nodes[0] if nodes else None)
    replacement = literal_str(nodes[1] if len(nodes) > 1 else None)
    subject = _str_arg(builder, values, 2)
    fst = None
    if pattern_text is not None and replacement is not None and "\\" not in replacement and "$" not in replacement:
        fst = _regex_replace_fst(pattern_text, replacement, php_delimiters)
    if fst is None:
        # sound Σ* fallback — see _h_str_replace's dynamic branch
        return _dynamic_fallback(builder, values, (0, 1, 2), "pregrep▽")
    return builder.image(subject, fst, "pregrep")


def _h_ereg_replace(builder, values, nodes):
    return _h_preg_replace(builder, values, nodes, php_delimiters=False)


@lru_cache(maxsize=64)
def _regex_replace_fst(
    pattern_text: str, replacement: str, php_delimiters: bool
) -> FST | None:
    """An exact FST for the ``preg_replace`` forms web code actually uses:
    a single character class (``/[^0-9]/``), a repeated class
    (``/[^a-z]+/``), or a fixed string.  Anything else → None (widen)."""
    try:
        pattern = (
            parse_php_regex(pattern_text)
            if php_delimiters
            else parse_regex(pattern_text)
        )
    except RegexError:
        return None
    root = pattern.root
    from repro.lang import regex as rx

    def fold(cs: CharSet) -> CharSet:
        return rx._case_fold(cs) if pattern.ignore_case else cs

    if isinstance(root, rx.Chars):
        return FST.char_map([(fold(root.charset), (replacement,))])
    if (
        isinstance(root, rx.Repeat)
        and isinstance(root.node, rx.Chars)
        and root.low >= 1
        and root.high is None
    ):
        return FST.collapse_class(fold(root.node.charset), replacement)
    if isinstance(root, rx.Repeat) and isinstance(root.node, rx.Chars) and root.low == 0:
        # '/x*/' replaces empty matches too — not FST-expressible; widen
        return None
    if isinstance(root, rx.Literal) and root.text:
        if pattern.ignore_case:
            return None
        return FST.replace_string(root.text, replacement)
    if isinstance(root, rx.Seq):
        text_parts = []
        for part in root.parts:
            if isinstance(part, rx.Literal):
                text_parts.append(part.text)
            else:
                return None
        joined = "".join(text_parts)
        if joined and not pattern.ignore_case:
            return FST.replace_string(joined, replacement)
    return None


def _h_strtr(builder, values, nodes):
    subject = _str_arg(builder, values, 0)
    from_text = literal_str(nodes[1] if len(nodes) > 1 else None)
    to_text = literal_str(nodes[2] if len(nodes) > 2 else None)
    if from_text is not None and to_text is not None:
        # PHP builds its translation table left to right, so for a
        # duplicated "from" character the *last* pair wins
        table: dict[str, str] = {}
        for f, t in zip(from_text, to_text):
            table[f] = t
        mapping = [(CharSet.of(f), (t,)) for f, t in table.items()]
        return builder.image(subject, FST.char_map(mapping), "strtr")
    # array form / dynamic tables: replacement strings come from the
    # tables, not the subject — Σ* is the only sound fallback
    return _dynamic_fallback(builder, values, (0, 1, 2), "strtr▽")


def _h_strrev(builder, values, nodes):
    return _reverse_value(builder, _str_arg(builder, values, 0))


def _h_substr(builder, values, nodes):
    subject = _str_arg(builder, values, 0)
    return builder.image(subject, _substring_fst(), "substr")


def _h_str_repeat(builder, values, nodes):
    subject = _str_arg(builder, values, 0)
    star = builder.fresh("repeat")
    builder.grammar.add(star, ())
    builder.grammar.add(star, (subject.nt, star))
    return StrVal(star)


def _h_str_pad(builder, values, nodes):
    subject = _str_arg(builder, values, 0)
    if len(nodes) > 2:
        pad_text = literal_str(nodes[2])
        if pad_text is None:
            # dynamic pad string: its characters are unknown
            return _dynamic_fallback(builder, values, (0, 2), "strpad▽")
    else:
        pad_text = " "
    if not pad_text:
        return subject
    # A star over the pad *alphabet*, not the pad string: PHP truncates
    # the final copy of a multi-character pad, so "abab a" is reachable
    # from pad "ab" — the pad-string star would miss the partial copy.
    pad_star = builder.charset_star(CharSet.of(pad_text), "pad")
    return builder.concat(builder.concat(pad_star, subject), pad_star)


#: Output language of each numeric sprintf conversion.  Per-directive
#: precision matters: %x emits hex digits and %o octal digits, which the
#: old catch-all decimal language excluded — a genuine unsoundness the
#: differential oracle flagged (``sprintf("%x", 255)`` → ``"ff"``).
_SPRINTF_LANGUAGES = {
    "d": r"[+-]?[0-9]+",
    "u": r"[+-]?[0-9]+",
    "f": r"[+-]?[0-9]+(\.[0-9]+)?",
    "F": r"[+-]?[0-9]+(\.[0-9]+)?",
    "e": r"[+-]?[0-9]+(\.[0-9]+)?[eE][+-]?[0-9]+",
    "E": r"[+-]?[0-9]+(\.[0-9]+)?[eE][+-]?[0-9]+",
    "g": r"[+-]?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?",
    "G": r"[+-]?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?",
    "x": r"[0-9a-f]+",
    "X": r"[0-9A-F]+",
    "o": r"[0-7]+",
    "b": r"[01]+",
}


def parse_sprintf_spec(fmt: str, i: int):
    """Parse ``%[argnum$][flags][width][.precision]directive`` starting at
    the ``%`` in ``fmt[i]``; returns ``(spec, directive, next_index)``
    with ``directive=None`` when the ``%`` starts no valid conversion.

    Shared with the concrete ``sprintf`` in the differential oracle so
    model and semantics can never disagree on what a directive *is*.
    """
    spec = {"flags": "", "width": 0, "precision": None, "pad": None, "argnum": None}
    j = i + 1
    k = j
    while k < len(fmt) and fmt[k].isdigit():
        k += 1
    if k > j and k < len(fmt) and fmt[k] == "$":
        spec["argnum"] = int(fmt[j:k])
        j = k + 1
    while j < len(fmt):
        char = fmt[j]
        if char in "-+ 0":
            spec["flags"] += char
            j += 1
        elif char == "'" and j + 1 < len(fmt):
            spec["pad"] = fmt[j + 1]
            j += 2
        else:
            break
    k = j
    while k < len(fmt) and fmt[k].isdigit():
        k += 1
    if k > j:
        spec["width"] = int(fmt[j:k])
        j = k
    if j < len(fmt) and fmt[j] == ".":
        k = j + 1
        while k < len(fmt) and fmt[k].isdigit():
            k += 1
        spec["precision"] = int(fmt[j + 1 : k] or 0)
        j = k
    if j < len(fmt) and fmt[j].isalpha():
        return spec, fmt[j], j + 1
    return spec, None, i + 1


def _sprintf_model(builder, values, nodes, fetch_arg):
    fmt = literal_str(nodes[0] if nodes else None)
    if fmt is None:
        # dynamic format string: any argument can appear anywhere
        return _dynamic_fallback(builder, values, tuple(range(len(values))), "sprintf▽")
    parts: list[StrVal] = []
    arg_index = 0
    i = 0
    chunk = ""
    while i < len(fmt):
        char = fmt[i]
        if char == "%" and i + 1 < len(fmt):
            if fmt[i + 1] == "%":
                chunk += "%"
                i += 2
                continue
            spec, directive, next_i = parse_sprintf_spec(fmt, i)
            if directive is None:
                chunk += char
                i += 1
                continue
            if chunk:
                parts.append(builder.literal(chunk))
                chunk = ""
            index = spec["argnum"] - 1 if spec["argnum"] else arg_index
            if directive in _SPRINTF_LANGUAGES:
                value = regular_result(builder, _SPRINTF_LANGUAGES[directive], "fmtnum")
            elif directive == "c":
                value = builder.from_symbols([CharSet.any_char()], "fmtchar")
            else:  # %s (and unknown conversions, conservatively): flows
                value = fetch_arg(index)
                if spec["precision"] is not None:
                    value = builder.image(value, _substring_fst(), "fmtprec")
            if spec["width"]:
                # padding may appear on either side (and is a *star*, so
                # the unpadded string stays in the language)
                pad_star = builder.charset_star(
                    CharSet.of(" 0" + (spec["pad"] or " ")), "fmtpad"
                )
                value = builder.concat(builder.concat(pad_star, value), pad_star)
            parts.append(value)
            if not spec["argnum"]:
                arg_index += 1
            i = next_i
            continue
        chunk += char
        i += 1
    if chunk:
        parts.append(builder.literal(chunk))
    return builder.concat_all(parts)


def _h_sprintf(builder, values, nodes):
    def fetch_arg(index):
        return _str_arg(builder, values, index + 1)

    return _sprintf_model(builder, values, nodes, fetch_arg)


def _h_vsprintf(builder, values, nodes):
    array_value = _arg(values, 1)

    def fetch_arg(index):
        if isinstance(array_value, ArrVal):
            return builder.to_str(array_value.get(str(index)))
        return builder.to_str(array_value)

    return _sprintf_model(builder, values, nodes, fetch_arg)


def _h_implode(builder, values, nodes):
    glue_value, array_value = _arg(values, 0), _arg(values, 1)
    if isinstance(glue_value, ArrVal) or (
        array_value is None and isinstance(glue_value, ArrVal)
    ):
        glue_value, array_value = array_value, glue_value
    if not isinstance(array_value, ArrVal):
        if isinstance(glue_value, ArrVal):  # implode($array) form
            array_value, glue_value = glue_value, None
        else:
            return builder.any_string(hint="implode?")
    glue = builder.to_str(glue_value) if glue_value is not None else builder.literal("")
    element_values = [builder.to_str(v) for v in array_value.all_values()]
    element = (
        builder.join(element_values, "elem") if element_values else builder.literal("")
    )
    result = builder.fresh("implode")
    builder.grammar.add(result, ())
    builder.grammar.add(result, (element.nt,))
    builder.grammar.add(result, (element.nt, glue.nt, result))
    return StrVal(result)


def _h_explode(builder, values, nodes):
    delim = literal_str(nodes[0] if nodes else None)
    subject = _str_arg(builder, values, 1)
    if delim is not None and len(delim) == 1:
        piece = builder.image(subject, _between_delims_fst(delim), "explode")
    else:
        # multi-character or dynamic delimiter: any substring (sound)
        piece = builder.image(subject, _substring_fst(), "explode~")
    return ArrVal(default=piece)


def _h_str_split(builder, values, nodes):
    subject = _str_arg(builder, values, 0)
    return ArrVal(default=builder.image(subject, _substring_fst(), "strsplit"))


# ---------------------------------------------------------------------------
# regular-output abstractions
# ---------------------------------------------------------------------------


def _regular_handler(pattern: str, hint: str, taint_arg: int | None = None) -> Handler:
    def handler(builder, values, nodes):
        result = regular_result(builder, pattern, hint)
        if taint_arg is not None:
            arg = _arg(values, taint_arg)
            if isinstance(arg, StrVal):
                _keep_taint(builder, arg, result)
        return result

    return handler


def _widen_handler(taint_args: tuple[int, ...] = (0,)) -> Handler:
    def handler(builder, values, nodes):
        subjects = [
            builder.to_str(_arg(values, index))
            for index in taint_args
            if _arg(values, index) is not None
        ]
        if not subjects:
            return builder.any_string(hint="▽")
        joined = builder.join(subjects, "args")
        return builder.widen(joined, "▽")

    # the audit pass distinguishes "modeled by widening" from exact models
    handler.widens = True
    return handler


def _any_handler(taint_args: tuple[int, ...] = (0,), hint: str = "▽*") -> Handler:
    """Sound Σ* fallback for *character-introducing* builtins (decoders,
    case extension, serialization, …).  Unlike :func:`_widen_handler`'s
    charset-closure, the output alphabet here is not bounded by the
    input's — ``urldecode("%27")`` contains a quote the input never had —
    so the only sound regular abstraction is Σ* carrying the arguments'
    taint.  The differential oracle is what caught the closure-widening
    variants under-approximating."""

    def handler(builder, values, nodes):
        return _dynamic_fallback(builder, values, taint_args, hint)

    handler.widens = True
    return handler


def _identity_handler(index: int = 0) -> Handler:
    def handler(builder, values, nodes):
        return _str_arg(builder, values, index)

    return handler


def _h_intval(builder, values, nodes):
    return regular_result(builder, r"-?[0-9]+", "intval")


def _h_number_format(builder, values, nodes):
    if len(nodes) > 2:
        # custom decimal-point / thousands separators can be anything
        return builder.any_string(hint="numfmt~")
    return regular_result(builder, r"-?[0-9][0-9,]*(\.[0-9]+)?", "numfmt")


#: characters a date()/strftime() format can emit when every format char
#: is drawn from this set (conversion outputs are letters/digits/colon)
_DATE_ALPHABET = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789 :,./+-"
)


def _h_date(builder, values, nodes):
    fmt = literal_str(nodes[0] if nodes else None)
    if fmt is not None and all(char in _DATE_ALPHABET for char in fmt):
        # unknown format chars pass through literally, so the output
        # alphabet is only bounded when the *format* stays inside it
        return regular_result(builder, r"[A-Za-z0-9 :,./+-]*", "date")
    return builder.any_string(hint="date~")


def _h_urlencode(builder, values, nodes):
    # alphabet covers both urlencode (keeps ``.-_``, emits ``+`` for
    # space) and rawurlencode (additionally keeps ``~``); ``*`` is kept
    # by urlencode on some PHP versions, so it stays in the union
    subject = _str_arg(builder, values, 0)
    result = regular_result(builder, r"[A-Za-z0-9%._+*~-]*", "urlenc")
    return _keep_taint(builder, subject, result)


def _h_chr(builder, values, nodes):
    # any single character — the regex ``.`` would exclude newline
    return builder.from_symbols([CharSet.any_char()], "chr")


def _h_dirname(builder, values, nodes):
    # dirname("name") == "." — not a substring of the input, so the
    # substring image alone under-approximates
    subject = _str_arg(builder, values, 0)
    sub = builder.image(subject, _substring_fst(), "dirname")
    return builder.join([sub, builder.literal(".")], "dirname∪")


def _h_base64_encode(builder, values, nodes):
    subject = _str_arg(builder, values, 0)
    result = regular_result(builder, r"[A-Za-z0-9+/]*={0,2}", "b64")
    return _keep_taint(builder, subject, result)


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

NUMERIC = r"-?[0-9]+"
HEX32 = r"[0-9a-f]{32}"
HEX40 = r"[0-9a-f]{40}"

BUILTINS: dict[str, Handler] = {
    # sanitizers / escaping (exact transducers)
    "addslashes": _h_addslashes,
    "stripslashes": _h_stripslashes,
    "mysql_real_escape_string": _h_mysql_escape,
    "mysql_escape_string": _h_mysql_escape,
    "mysqli_real_escape_string": _h_mysqli_escape,
    "pg_escape_string": _h_pg_escape,
    "sqlite_escape_string": _h_sqlite_escape,
    "htmlspecialchars": _h_htmlspecialchars,
    "htmlentities": _h_htmlspecialchars,
    "escapeshellarg": _h_escapeshellarg,
    "preg_quote": _h_preg_quote,
    "quotemeta": _h_quotemeta,
    # replacement family
    "str_replace": _h_str_replace,
    # case-insensitive matching is not FST-expressible with our literal
    # replace machinery; Σ*+taint, never str_replace's exact image
    "str_ireplace": _any_handler((0, 1, 2), "ireplace▽"),
    "preg_replace": _h_preg_replace,
    "ereg_replace": _h_ereg_replace,
    "eregi_replace": _h_ereg_replace,
    "strtr": _h_strtr,
    "nl2br": _h_nl2br,
    # case / shape
    "strtolower": _h_strtolower,
    "strtoupper": _h_strtoupper,
    "mb_strtolower": _h_strtolower,
    "mb_strtoupper": _h_strtoupper,
    # case extension escapes the input's charset closure ("a" → "A"), so
    # these must fall back to Σ*, not to widening
    "lcfirst": _any_handler(),
    "ucfirst": _any_handler(),
    "ucwords": _any_handler(),
    "trim": _h_trim,
    "ltrim": _h_trim,
    "rtrim": _h_trim,
    "chop": _h_trim,
    "strrev": _h_strrev,
    "substr": _h_substr,
    "mb_substr": _h_substr,
    "str_repeat": _h_str_repeat,
    "str_pad": _h_str_pad,
    # these *insert* characters the input need not contain (break
    # strings, decoded entities, interpreted escapes): Σ* + taint
    "wordwrap": _any_handler(),
    "chunk_split": _any_handler(),
    "stripcslashes": _any_handler(),
    "html_entity_decode": _any_handler(),
    "htmlspecialchars_decode": _any_handler(),
    # strip_tags only ever *removes* characters, so the charset-closure
    # widening really is sound for it
    "strip_tags": _widen_handler(),
    # formatting / structure
    "sprintf": _h_sprintf,
    "vsprintf": _h_vsprintf,
    "implode": _h_implode,
    "join": _h_implode,
    "explode": _h_explode,
    "str_split": _h_str_split,
    "preg_split": _h_explode,
    "split": _h_explode,
    # numeric conversions (sanitizing)
    "intval": _h_intval,
    "floatval": _regular_handler(r"-?[0-9]+(\.[0-9]+)?", "floatval"),
    "doubleval": _regular_handler(r"-?[0-9]+(\.[0-9]+)?", "floatval"),
    "abs": _regular_handler(r"[0-9]+(\.[0-9]+)?", "abs"),
    "round": _regular_handler(r"-?[0-9]+(\.[0-9]+)?", "round"),
    "floor": _regular_handler(NUMERIC, "floor"),
    "ceil": _regular_handler(NUMERIC, "ceil"),
    "count": _regular_handler(NUMERIC, "count"),
    "sizeof": _regular_handler(NUMERIC, "sizeof"),
    "strlen": _regular_handler(NUMERIC, "strlen"),
    "mb_strlen": _regular_handler(NUMERIC, "strlen"),
    # strpos/strrpos return false (string "") when there is no match
    "strpos": _regular_handler(r"(-?[0-9]+)?", "strpos"),
    "strrpos": _regular_handler(r"(-?[0-9]+)?", "strrpos"),
    "time": _regular_handler(NUMERIC, "time"),
    "mktime": _regular_handler(NUMERIC, "mktime"),
    "rand": _regular_handler(NUMERIC, "rand"),
    "mt_rand": _regular_handler(NUMERIC, "mt_rand"),
    "number_format": _h_number_format,
    "ord": _regular_handler(NUMERIC, "ord"),
    "hexdec": _regular_handler(NUMERIC, "hexdec"),
    "octdec": _regular_handler(NUMERIC, "octdec"),
    "bindec": _regular_handler(NUMERIC, "bindec"),
    # digest / encoding (safe or restricted alphabets)
    "md5": _regular_handler(HEX32, "md5"),
    "sha1": _regular_handler(HEX40, "sha1"),
    "crc32": _regular_handler(NUMERIC, "crc32"),
    "uniqid": _regular_handler(r"[0-9a-f.]+", "uniqid"),
    "dechex": _regular_handler(r"[0-9a-f]+", "dechex"),
    "decoct": _regular_handler(r"[0-7]+", "decoct"),
    "decbin": _regular_handler(r"[01]+", "decbin"),
    "bin2hex": _regular_handler(r"[0-9a-f]*", "bin2hex", taint_arg=0),
    "urlencode": _h_urlencode,
    "rawurlencode": _h_urlencode,
    "base64_encode": _h_base64_encode,
    "chr": _h_chr,
    "date": _h_date,
    "strftime": _h_date,
    "gmdate": _h_date,
    # expanding / unmodellable — Σ*, keep taint: all of these can emit
    # characters the input never contained, so charset-closure widening
    # would under-approximate (urldecode("%27") contains a quote)
    "urldecode": _any_handler(),
    "rawurldecode": _any_handler(),
    "base64_decode": _any_handler(),
    "utf8_encode": _any_handler(),
    "utf8_decode": _any_handler(),
    "convert_uuencode": _any_handler(),
    "serialize": _any_handler(),
    "unserialize": _any_handler(),
    "gzcompress": _any_handler(),
    "gzuncompress": _any_handler(),
    "strval": _identity_handler(),
    # the remediation engine's prepared-statement shim
    # (repro.remediate.synthesize): executes the template with the
    # array-bound holes attached out of band, so the query reaching the
    # sink is exactly the untainted template literal
    "sqlciv_prepare": _identity_handler(),
    # misc string
    "basename": _h_substr,
    "dirname": _h_dirname,
    "pathinfo": _h_substr,
    "strstr": _h_substr,
    "stristr": _h_substr,
    "strrchr": _h_substr,
    "strchr": _h_substr,
    "get_magic_quotes_gpc": _regular_handler(r"[01]", "magicquotes"),
    "gettype": _regular_handler(
        r"(boolean|integer|double|string|array|object|NULL)", "gettype"
    ),
    "php_uname": _regular_handler(r"[A-Za-z0-9 ._-]*", "uname"),
    "phpversion": _regular_handler(r"[0-9.]+", "phpversion"),
}

#: Names of builtins whose return value is an *array* of pieces.
ARRAY_RESULTS = frozenset({"explode", "str_split", "preg_split", "split"})

#: Statement-ish builtins that return nothing interesting and have no
#: string effect (registered so the analysis does not widen on them).
NO_EFFECT = frozenset(
    """
    header error_reporting ini_set ini_get set_time_limit session_start
    session_destroy session_write_close setcookie ob_start ob_end_flush
    ob_end_clean flush usleep sleep error_log trigger_error define defined
    srand mt_srand register_shutdown_function function_exists class_exists
    method_exists extension_loaded connection_aborted ignore_user_abort
    unset print printf echo var_dump print_r assert
    """.split()
)


#: Builtins whose *only* model is the sound widening fallback — the call
#: succeeds but the result is a charset-closure over-approximation.  The
#: soundness audit reports these as ``widened`` (precision caveats, not
#: soundness holes).  Handlers that widen only on dynamic arguments
#: (``str_replace`` with a non-literal pattern, …) are caught at run time
#: through :meth:`GrammarBuilder.widen`'s audit hook instead.
WIDENING_BUILTINS = frozenset(
    name for name, handler in BUILTINS.items() if getattr(handler, "widens", False)
)


def model_call(
    name: str,
    builder: GrammarBuilder,
    values: list[Value | None],
    nodes: list[ast.Expr],
    audit=None,
) -> Value | None:
    """Apply the model for builtin ``name``; None if no model exists.

    When an :class:`~repro.analysis.audit.AuditTrail` is supplied, every
    call that falls through to the widening fallback records the builtin's
    *name* (not just the fact of widening), so the audit can report
    "N calls to widened builtins: …" per page.
    """
    handler = BUILTINS.get(name)
    if handler is not None:
        if audit is not None and getattr(handler, "widens", False):
            audit.record_builtin_widening(name)
        return handler(builder, values, nodes)
    if name in NO_EFFECT:
        return builder.literal("")
    return None


# ---------------------------------------------------------------------------
# predicates (branch refinement languages)
# ---------------------------------------------------------------------------


#: boolean predicates the branch refinement (§3.1.2) understands; their
#: *return value* needs no string model, so a call is never "unknown"
PREDICATE_FUNCTIONS = frozenset(
    """
    preg_match preg_match_all ereg eregi is_numeric ctype_digit
    ctype_alnum ctype_alpha ctype_xdigit is_int is_integer in_array
    """.split()
)

#: Truth languages of the simple character-class predicates.  This dict
#: is *the* definition of these predicates in our PHP subset: branch
#: refinement builds its condition languages from it, and the concrete
#: interpreter in :mod:`repro.oracle` evaluates the very same patterns —
#: if the two ever read different sources they could drift apart and the
#: differential oracle would (rightly) flag it.
PREDICATE_PATTERNS = {
    "is_numeric": r"^[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?$",
    "ctype_digit": r"^[0-9]+$",
    "ctype_alnum": r"^[0-9A-Za-z]+$",
    "ctype_alpha": r"^[A-Za-z]+$",
    "ctype_xdigit": r"^[0-9A-Fa-f]+$",
    "is_int": r"^-?[0-9]+$",
    "is_integer": r"^-?[0-9]+$",
}


def predicate_language(call: ast.Call) -> tuple[ast.Expr, Pattern | NFA] | None:
    """For a boolean builtin call, return ``(constrained_arg, language)``
    where ``language`` describes the strings for which the call is true.

    ``preg_match``-family results carry :class:`Pattern` (so the caller
    can build the complement for the else-branch); the ``ctype`` family
    returns anchored patterns too.
    """
    name = call.name
    args = call.args
    if name in ("preg_match", "preg_match_all") and len(args) >= 2:
        pattern_text = literal_str(args[0])
        if pattern_text is None:
            return None
        try:
            return args[1], parse_php_regex(pattern_text)
        except RegexError:
            return None
    if name in ("ereg", "eregi") and len(args) >= 2:
        pattern_text = literal_str(args[0])
        if pattern_text is None:
            return None
        try:
            return args[1], parse_regex(pattern_text, ignore_case=(name == "eregi"))
        except RegexError:
            return None
    if name in PREDICATE_PATTERNS and args:
        return args[0], parse_regex(PREDICATE_PATTERNS[name])
    if name == "in_array" and len(args) >= 2 and isinstance(args[1], ast.ArrayLit):
        literals = []
        for _, value in args[1].items:
            text = literal_str(value)
            if text is None:
                return None
            literals.append(text)
        language = NFA.nothing()
        for text in literals:
            language = language.union(NFA.from_string(text))
        return args[0], language
    return None


# ---------------------------------------------------------------------------
# concrete counterparts (the differential oracle's ground truth)
# ---------------------------------------------------------------------------
#
# Every abstract model above has a *concrete* implementation below, and
# the two live in the same module deliberately: the oracle in
# :mod:`repro.oracle` executes pages with these functions and checks the
# produced strings against the grammar the handlers build — if a model
# and its semantics drift apart, the fuzzer reports a divergence instead
# of the gap silently weakening Theorem 3.4.  ``test_concrete_parity``
# additionally asserts ``set(BUILTINS) ⊆ set(CONCRETE)`` so a new model
# cannot land without ground truth.
#
# Conventions:
#
# * functions receive *plain* Python values (str / int / float / bool /
#   None / dict for PHP arrays — insertion-ordered, string keys); the
#   interpreter strips taint before the call and re-attaches it per the
#   spec's ``taint`` mode;
# * ambient effects (``rand``, ``time``, ``uniqid``) read a
#   :class:`ConcreteState` so runs are deterministic and seedable;
# * where real PHP is irreducibly non-deterministic or out of scope
#   (clock values, locale) we fix a deterministic *subset semantics* and
#   the abstract model over-approximates that — documented per function.


class ConcreteState:
    """Deterministic ambient state for concrete evaluation: a seeded RNG
    for ``rand``/``mt_rand``, a fixed clock for ``time``/``date``, and a
    counter for ``uniqid``."""

    def __init__(self, seed: int = 0, clock: int = 0) -> None:
        import random

        self.rng = random.Random(seed)
        self.clock = clock
        self._uniqid = 0

    def next_uniqid(self) -> int:
        self._uniqid += 1
        return self._uniqid


@dataclass(frozen=True)
class ConcreteSpec:
    """Concrete implementation + taint-weaving mode of one builtin.

    ``taint`` tells the interpreter how the result relates to the
    arguments' taint, mirroring the *model's* labeling behavior:

    * ``charwise`` — per-character transducer: apply the function to each
      taint segment of the subject independently (self-checked against
      the full-string result; on mismatch the result degrades to a
      single "blurred" tainted segment excluded from confinement
      cross-checks);
    * ``whole``    — the model labels its whole Σ*/regular result, so the
      whole concrete result is one tainted segment iff any argument was;
    * ``drop``     — the model is an untainted regular set (digests,
      lengths, numbers): result untainted;
    * ``interp``   — the interpreter weaves taint itself (slicing,
      sprintf, implode, …); ``fn`` still defines the ground-truth text.
    """

    fn: Callable
    taint: str = "drop"
    subject: int = 0


def _at(args: list, index: int):
    return args[index] if index < len(args) else None


def _str_at(args: list, index: int) -> str:
    return to_php_str(_at(args, index))


def php_float_str(value: float) -> str:
    """PHP's float-to-string: integral floats print without a decimal
    point (``echo 6/2`` → ``3``).  Matches :func:`_php_number_str` on
    parsed literals, which round-trip through ``repr``."""
    if math.isnan(value):
        return "NAN"
    if math.isinf(value):
        return "INF" if value > 0 else "-INF"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def to_php_str(value) -> str:
    """PHP string coercion of a plain value (arrays print ``Array``,
    matching :meth:`GrammarBuilder.to_str`)."""
    if isinstance(value, str):
        return value
    if value is None or value is False:
        return ""
    if value is True:
        return "1"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return php_float_str(value)
    if isinstance(value, dict):
        return "Array"
    return str(value)


_INT_PREFIX = re.compile(r"[+-]?[0-9]+")
_FLOAT_PREFIX = re.compile(r"[+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?")
_PHP_WHITESPACE = " \t\n\r\v\f"


def php_int(value) -> int:
    """PHP integer coercion (leading numeric prefix of strings)."""
    if isinstance(value, bool):
        return int(value)
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return int(value)
    if isinstance(value, str):
        match = _INT_PREFIX.match(value.lstrip(_PHP_WHITESPACE))
        return int(match.group()) if match else 0
    if isinstance(value, dict):
        return 1 if value else 0
    return 0


def php_float(value) -> float:
    if isinstance(value, bool):
        return float(value)
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        match = _FLOAT_PREFIX.match(value.lstrip(_PHP_WHITESPACE))
        return float(match.group()) if match else 0.0
    return 0.0


def php_bool(value) -> bool:
    """PHP truthiness: ``""``, ``"0"``, 0, 0.0, empty array, NULL are
    falsy; everything else (including ``"0.0"`` and ``" "``) is truthy."""
    if isinstance(value, str):
        return value not in ("", "0")
    if isinstance(value, dict):
        return bool(value)
    return bool(value)


# --- escaping ---------------------------------------------------------------

_ADDSLASHES_TABLE = {"\0": "\\0", "'": "\\'", '"': '\\"', "\\": "\\\\"}
_MYSQL_ESCAPE_TABLE = {
    "\0": "\\0",
    "\n": "\\n",
    "\r": "\\r",
    "\x1a": "\\Z",
    "'": "\\'",
    '"': '\\"',
    "\\": "\\\\",
}


def php_addslashes(value: str) -> str:
    return "".join(_ADDSLASHES_TABLE.get(char, char) for char in value)


def php_stripslashes(value: str) -> str:
    out: list[str] = []
    i = 0
    while i < len(value):
        char = value[i]
        if char == "\\" and i + 1 < len(value):
            escaped = value[i + 1]
            out.append("\0" if escaped == "0" else escaped)
            i += 2
        elif char == "\\":
            i += 1  # trailing lone backslash is dropped
        else:
            out.append(char)
            i += 1
    return "".join(out)


def php_mysql_escape(value: str) -> str:
    return "".join(_MYSQL_ESCAPE_TABLE.get(char, char) for char in value)


def php_pg_escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace("'", "''")


def php_sqlite_escape(value: str) -> str:
    return value.replace("'", "''")


def php_escapeshellarg(value: str) -> str:
    return "'" + value.replace("'", "'\\''") + "'"


def _quote_style(nodes: list, index: int = 1) -> str:
    if len(nodes) > index and isinstance(nodes[index], ast.ConstFetch):
        return nodes[index].name
    return "ENT_COMPAT"


def php_htmlspecialchars(value: str, style: str = "ENT_COMPAT") -> str:
    table = {"&": "&amp;", "<": "&lt;", ">": "&gt;"}
    if style in ("ENT_COMPAT", "ENT_QUOTES"):
        table['"'] = "&quot;"
    if style == "ENT_QUOTES":
        table["'"] = "&#039;"
    return "".join(table.get(char, char) for char in value)


def php_htmlspecialchars_decode(value: str, style: str = "ENT_COMPAT") -> str:
    table = {"&amp;": "&", "&lt;": "<", "&gt;": ">"}
    if style in ("ENT_COMPAT", "ENT_QUOTES"):
        table["&quot;"] = '"'
    if style == "ENT_QUOTES":
        table["&#039;"] = "'"
        table["&#39;"] = "'"
    pattern = re.compile("|".join(re.escape(entity) for entity in table))
    return pattern.sub(lambda match: table[match.group()], value)


def php_preg_quote(value: str) -> str:
    return "".join("\\" + char if char in REGEX_SPECIALS else char for char in value)


def php_quotemeta(value: str) -> str:
    return "".join("\\" + char if char in QUOTEMETA_CHARS else char for char in value)


def php_nl2br(value: str) -> str:
    return re.sub(r"\r\n|\n\r|\n|\r", lambda m: "<br />" + m.group(), value)


# --- replacement ------------------------------------------------------------


def _listify(value) -> list[str]:
    if isinstance(value, dict):
        return [to_php_str(item) for item in value.values()]
    return [to_php_str(value)]


def php_str_replace(search, replace, subject: str) -> str:
    searches = _listify(search)
    if isinstance(replace, dict):
        replacements = _listify(replace)
        replacements += [""] * (len(searches) - len(replacements))
    else:
        replacements = [to_php_str(replace)] * len(searches)
    result = subject
    for needle, replacement in zip(searches, replacements):
        if needle:
            result = result.replace(needle, replacement)
    return result


def php_str_ireplace(search, replace, subject: str) -> str:
    searches = _listify(search)
    if isinstance(replace, dict):
        replacements = _listify(replace)
        replacements += [""] * (len(searches) - len(replacements))
    else:
        replacements = [to_php_str(replace)] * len(searches)
    result = subject
    for needle, replacement in zip(searches, replacements):
        if needle:
            result = re.sub(
                re.escape(needle),
                lambda _m, rep=replacement: rep,
                result,
                flags=re.IGNORECASE,
            )
    return result


@lru_cache(maxsize=512)
def compile_php_pattern(pattern_text: str) -> "re.Pattern[str]":
    """A delimiter-wrapped PCRE pattern as a Python regex; raises
    :class:`ValueError` on constructs outside our subset (``U`` flag)."""
    if len(pattern_text) < 2:
        raise ValueError(f"bad pattern {pattern_text!r}")
    delimiter = pattern_text[0]
    closing = {"(": ")", "[": "]", "{": "}", "<": ">"}.get(delimiter, delimiter)
    end = pattern_text.rfind(closing)
    if end <= 0:
        raise ValueError(f"bad pattern {pattern_text!r}")
    body, modifiers = pattern_text[1:end], pattern_text[end + 1 :]
    flags = 0
    for modifier in modifiers:
        if modifier == "i":
            flags |= re.IGNORECASE
        elif modifier == "m":
            flags |= re.MULTILINE
        elif modifier == "s":
            flags |= re.DOTALL
        elif modifier == "x":
            flags |= re.VERBOSE
        elif modifier == "u":
            pass
        else:
            raise ValueError(f"unsupported modifier {modifier!r}")
    return re.compile(body, flags)


def _php_replacement(replacement: str) -> str:
    """PHP ``$1``/``\\1`` backreferences as a Python template, with every
    other backslash made literal."""
    out: list[str] = []
    i = 0
    while i < len(replacement):
        char = replacement[i]
        if char in "$\\" and i + 1 < len(replacement) and replacement[i + 1].isdigit():
            j = i + 1
            while j < len(replacement) and replacement[j].isdigit():
                j += 1
            out.append("\\" + replacement[i + 1 : j])
            i = j
        elif char == "\\":
            out.append("\\\\")
            i += 1
        else:
            out.append(char)
            i += 1
    return "".join(out)


def php_preg_replace(pattern, replacement, subject: str) -> str:
    patterns = _listify(pattern)
    if isinstance(replacement, dict):
        replacements = _listify(replacement)
        replacements += [""] * (len(patterns) - len(replacements))
    else:
        replacements = [to_php_str(replacement)] * len(patterns)
    result = subject
    for pattern_text, repl in zip(patterns, replacements):
        result = compile_php_pattern(pattern_text).sub(_php_replacement(repl), result)
    return result


def php_ereg_replace(pattern: str, replacement: str, subject: str, ignore_case=False) -> str:
    flags = re.IGNORECASE if ignore_case else 0
    return re.compile(pattern, flags).sub(_php_replacement(replacement), subject)


def php_strtr(subject: str, second, third=None) -> str:
    if third is not None:
        from_text, to_text = to_php_str(second), to_php_str(third)
        table = {}
        for f, t in zip(from_text, to_text):
            table[f] = t
        return "".join(table.get(char, char) for char in subject)
    if not isinstance(second, dict):
        return subject
    pairs = sorted(
        ((str(key), to_php_str(val)) for key, val in second.items() if str(key)),
        key=lambda pair: -len(pair[0]),
    )
    out: list[str] = []
    i = 0
    while i < len(subject):
        for needle, repl in pairs:
            if subject.startswith(needle, i):
                out.append(repl)
                i += len(needle)
                break
        else:
            out.append(subject[i])
            i += 1
    return "".join(out)


# --- case / shape -----------------------------------------------------------


def php_strtolower(value: str) -> str:
    # byte semantics: only ASCII A–Z, matching the LOWER marker's image
    return "".join(
        chr(ord(char) + 32) if "A" <= char <= "Z" else char for char in value
    )


def php_strtoupper(value: str) -> str:
    return "".join(
        chr(ord(char) - 32) if "a" <= char <= "z" else char for char in value
    )


def php_ucfirst(value: str) -> str:
    return php_strtoupper(value[:1]) + value[1:] if value else value


def php_lcfirst(value: str) -> str:
    return php_strtolower(value[:1]) + value[1:] if value else value


def php_ucwords(value: str) -> str:
    out: list[str] = []
    boundary = True
    for char in value:
        out.append(php_strtoupper(char) if boundary else char)
        boundary = char in " \t\r\n\f\v"
    return "".join(out)


_DEFAULT_TRIM = " \t\n\r\0\x0b"


def trim_charlist(arg: str | None) -> str:
    """The character list of trim()'s second argument, expanding
    ``a..z`` ranges."""
    if arg is None:
        return _DEFAULT_TRIM
    chars: list[str] = []
    i = 0
    while i < len(arg):
        if i + 3 < len(arg) and arg[i + 1 : i + 3] == "..":
            chars.extend(
                chr(code) for code in range(ord(arg[i]), ord(arg[i + 3]) + 1)
            )
            i += 4
        else:
            chars.append(arg[i])
            i += 1
    return "".join(chars)


def php_trim(value: str, charlist: str | None = None) -> str:
    return value.strip(trim_charlist(charlist))


def php_ltrim(value: str, charlist: str | None = None) -> str:
    return value.lstrip(trim_charlist(charlist))


def php_rtrim(value: str, charlist: str | None = None) -> str:
    return value.rstrip(trim_charlist(charlist))


def php_substr(value: str, start: int, length: int | None = None) -> str:
    size = len(value)
    if start < 0:
        start = max(0, size + start)
    elif start > size:
        return ""
    if length is None:
        return value[start:]
    if length < 0:
        end = size + length
        return value[start:end] if end > start else ""
    return value[start : start + length]


def php_strstr(haystack: str, needle: str, before: bool = False):
    if not needle:
        return False
    index = haystack.find(needle)
    if index < 0:
        return False
    return haystack[:index] if before else haystack[index:]


def php_stristr(haystack: str, needle: str):
    if not needle:
        return False
    index = haystack.lower().find(needle.lower())
    if index < 0:
        return False
    return haystack[index:]


def php_strrchr(haystack: str, needle: str):
    if not needle:
        return False
    index = haystack.rfind(needle[0])
    return haystack[index:] if index >= 0 else False


def php_str_pad(
    value: str, length: int, pad: str = " ", pad_type: str = "STR_PAD_RIGHT"
) -> str:
    missing = length - len(value)
    if missing <= 0 or not pad:
        return value
    if pad_type == "STR_PAD_LEFT":
        return (pad * missing)[:missing] + value
    if pad_type == "STR_PAD_BOTH":
        left = missing // 2
        right = missing - left
        return (pad * left)[:left] + value + (pad * right)[:right]
    return value + (pad * missing)[:missing]


def php_wordwrap(value: str, width: int = 75, brk: str = "\n", cut: bool = False) -> str:
    if width <= 0:
        return value
    out: list[str] = []
    line_len = 0
    for word in value.split(" "):
        while cut and len(word) > width:
            if line_len:
                out.append(brk)
                line_len = 0
            out.append(word[:width])
            out.append(brk)
            word = word[width:]
        extra = len(word) + (1 if line_len else 0)
        if line_len and line_len + extra > width:
            out.append(brk)
            line_len = 0
        elif line_len:
            out.append(" ")
            line_len += 1
        out.append(word)
        line_len += len(word)
    return "".join(out)


def php_chunk_split(value: str, length: int = 76, end: str = "\r\n") -> str:
    if length <= 0:
        return value
    out: list[str] = []
    for i in range(0, len(value), length):
        out.append(value[i : i + length])
        out.append(end)
    return "".join(out)


def php_strip_tags(value: str) -> str:
    out: list[str] = []
    in_tag = False
    pending: list[str] = []
    for char in value:
        if in_tag:
            if char == ">":
                in_tag = False
                pending = []
        elif char == "<":
            in_tag = True
        else:
            out.append(char)
    # an unclosed '<' swallows the rest of the string (PHP behavior)
    del pending
    return "".join(out)


def php_stripcslashes(value: str) -> str:
    simple = {"n": "\n", "t": "\t", "r": "\r", "a": "\a", "v": "\v", "b": "\b", "f": "\f"}
    out: list[str] = []
    i = 0
    while i < len(value):
        char = value[i]
        if char != "\\" or i + 1 >= len(value):
            out.append(char)
            i += 1
            continue
        escaped = value[i + 1]
        if escaped in simple:
            out.append(simple[escaped])
            i += 2
        elif escaped == "x" and i + 2 < len(value) and value[i + 2] in "0123456789abcdefABCDEF":
            j = i + 2
            while j < len(value) and j < i + 4 and value[j] in "0123456789abcdefABCDEF":
                j += 1
            out.append(chr(int(value[i + 2 : j], 16)))
            i = j
        elif escaped in "01234567":
            j = i + 1
            while j < len(value) and j < i + 4 and value[j] in "01234567":
                j += 1
            out.append(chr(int(value[i + 1 : j], 8) % 256))
            i = j
        else:
            out.append(escaped)
            i += 2
    return "".join(out)


# --- formatting -------------------------------------------------------------

_EXPONENT_ZEROS = re.compile(r"([eE][+-])0*([0-9])")


def _format_directive(directive: str, spec: dict, arg) -> str:
    precision = spec["precision"]
    if directive == "d":
        text = str(php_int(arg))
    elif directive == "u":
        number = php_int(arg)
        text = str(number if number >= 0 else number + (1 << 64))
    elif directive in "fF":
        text = f"{php_float(arg):.{6 if precision is None else precision}f}"
    elif directive in "eE":
        text = f"{php_float(arg):.{6 if precision is None else precision}e}"
        text = _EXPONENT_ZEROS.sub(r"\1\2", text)
        if directive == "E":
            text = text.upper()
    elif directive in "gG":
        digits = max(1, 6 if precision is None else precision)
        text = f"{php_float(arg):.{digits}g}"
        text = _EXPONENT_ZEROS.sub(r"\1\2", text)
        if directive == "G":
            text = text.upper()
    elif directive in "xXob":
        number = php_int(arg)
        if number < 0:
            number += 1 << 64
        base = {"x": "x", "X": "X", "o": "o", "b": "b"}[directive]
        text = format(number, base)
    elif directive == "c":
        text = chr(php_int(arg) % 256)
    else:  # %s and unknown conversions
        text = to_php_str(arg)
        if precision is not None:
            text = text[:precision]
    if directive in "dfFeEgG" and "+" in spec["flags"] and not text.startswith("-"):
        text = "+" + text
    width = spec["width"]
    if width > len(text):
        pad_char = spec["pad"] or (
            "0" if "0" in spec["flags"] and "-" not in spec["flags"] else " "
        )
        missing = width - len(text)
        if "-" in spec["flags"]:
            text = text + (spec["pad"] or " ") * missing
        elif pad_char == "0" and text[:1] in "+-":
            text = text[0] + "0" * missing + text[1:]
        else:
            text = pad_char * missing + text
    return text


def php_sprintf(fmt: str, fargs: list) -> str:
    out: list[str] = []
    arg_index = 0
    i = 0
    while i < len(fmt):
        char = fmt[i]
        if char == "%" and i + 1 < len(fmt):
            if fmt[i + 1] == "%":
                out.append("%")
                i += 2
                continue
            spec, directive, next_i = parse_sprintf_spec(fmt, i)
            if directive is None:
                out.append(char)
                i += 1
                continue
            index = spec["argnum"] - 1 if spec["argnum"] else arg_index
            arg = fargs[index] if index < len(fargs) else ""
            out.append(_format_directive(directive, spec, arg))
            if not spec["argnum"]:
                arg_index += 1
            i = next_i
            continue
        out.append(char)
        i += 1
    return "".join(out)


def php_number_format(number: float, decimals: int = 0, dec_point: str = ".", thousands: str = ",") -> str:
    text = f"{number:,.{max(0, decimals)}f}"
    # swap through placeholders so custom separators cannot collide
    text = text.replace(",", "\0").replace(".", "\1")
    return text.replace("\0", thousands).replace("\1", dec_point)


# --- numbers ----------------------------------------------------------------


def php_intval(value, base: int = 10) -> int:
    if base == 10 or not isinstance(value, str):
        return php_int(value)
    text = value.strip(_PHP_WHITESPACE)
    match = re.match(r"[+-]?[0-9a-zA-Z]+", text)
    if not match:
        return 0
    try:
        return int(match.group(), base)
    except ValueError:
        return 0


def php_round(value: float, precision: int = 0) -> float:
    factor = 10.0**precision
    scaled = value * factor
    rounded = math.floor(scaled + 0.5) if scaled >= 0 else math.ceil(scaled - 0.5)
    return rounded / factor


def php_strpos(haystack: str, needle: str, offset: int = 0):
    if not needle:
        return False
    index = haystack.find(needle, offset)
    return False if index < 0 else index


def php_strrpos(haystack: str, needle: str):
    if not needle:
        return False
    index = haystack.rfind(needle)
    return False if index < 0 else index


def php_count(value) -> int:
    if isinstance(value, dict):
        return len(value)
    return 0 if value is None else 1


def _filtered_base(value: str, alphabet: str, base: int) -> int:
    digits = "".join(char for char in value if char in alphabet)
    return int(digits, base) if digits else 0


def php_hexdec(value: str) -> int:
    return _filtered_base(value, "0123456789abcdefABCDEF", 16)


def php_octdec(value: str) -> int:
    return _filtered_base(value, "01234567", 8)


def php_bindec(value: str) -> int:
    return _filtered_base(value, "01", 2)


def _unsigned64(number: int) -> int:
    return number + (1 << 64) if number < 0 else number


# --- digests / encodings ----------------------------------------------------


def _latin1(value: str) -> bytes:
    return value.encode("latin-1", "replace")


def php_urlencode(value: str) -> str:
    out: list[str] = []
    for char in value:
        if char.isascii() and (char.isalnum() or char in "._-"):
            out.append(char)
        elif char == " ":
            out.append("+")
        else:
            out.append(f"%{ord(char) & 0xFF:02X}")
    return "".join(out)


def php_rawurlencode(value: str) -> str:
    out: list[str] = []
    for char in value:
        if char.isascii() and (char.isalnum() or char in "._~-"):
            out.append(char)
        else:
            out.append(f"%{ord(char) & 0xFF:02X}")
    return "".join(out)


def _decode_percent(value: str, plus_is_space: bool) -> str:
    out: list[str] = []
    i = 0
    while i < len(value):
        char = value[i]
        if char == "%" and re.match(r"[0-9a-fA-F]{2}", value[i + 1 : i + 3]):
            out.append(chr(int(value[i + 1 : i + 3], 16)))
            i += 3
        elif plus_is_space and char == "+":
            out.append(" ")
            i += 1
        else:
            out.append(char)
            i += 1
    return "".join(out)


def php_urldecode(value: str) -> str:
    return _decode_percent(value, plus_is_space=True)


def php_rawurldecode(value: str) -> str:
    return _decode_percent(value, plus_is_space=False)


def php_base64_decode(value: str):
    body = re.sub(r"[^0-9A-Za-z+/=]", "", value).split("=")[0]
    body += "=" * (-len(body) % 4)
    try:
        return base64.b64decode(body).decode("latin-1")
    except (binascii.Error, ValueError):
        return False


def php_utf8_encode(value: str) -> str:
    return "".join(chr(byte) for byte in value.encode("utf-8", "replace"))


def php_utf8_decode(value: str) -> str:
    return bytes(ord(char) & 0xFF for char in value).decode("utf-8", "replace")


def php_convert_uuencode(value: str) -> str:
    data = _latin1(value)
    out: list[str] = []
    for i in range(0, len(data), 45):
        out.append(binascii.b2a_uu(data[i : i + 45]).decode("latin-1"))
    out.append("`\n")
    return "".join(out)


def php_serialize(value) -> str:
    if isinstance(value, bool):
        return f"b:{int(value)};"
    if isinstance(value, int):
        return f"i:{value};"
    if isinstance(value, float):
        return f"d:{repr(value)};"
    if value is None:
        return "N;"
    if isinstance(value, dict):
        parts = []
        for key, item in value.items():
            key_text = str(key)
            if re.fullmatch(r"-?[0-9]+", key_text):
                parts.append(f"i:{key_text};")
            else:
                parts.append(php_serialize(key_text))
            parts.append(php_serialize(item))
        return f"a:{len(value)}:{{{''.join(parts)}}}"
    text = to_php_str(value)
    return f's:{len(text)}:"{text}";'


def php_unserialize(value: str):
    def parse(pos: int):
        if value.startswith("N;", pos):
            return None, pos + 2
        kind = value[pos : pos + 2]
        if kind == "b:":
            end = value.index(";", pos)
            return value[pos + 2 : end] == "1", end + 1
        if kind == "i:":
            end = value.index(";", pos)
            return int(value[pos + 2 : end]), end + 1
        if kind == "d:":
            end = value.index(";", pos)
            return float(value[pos + 2 : end]), end + 1
        if kind == "s:":
            colon = value.index(":", pos + 2)
            length = int(value[pos + 2 : colon])
            start = colon + 2  # skip opening quote
            text = value[start : start + length]
            if value[start + length : start + length + 2] != '";':
                raise ValueError("bad string")
            return text, start + length + 2
        if kind == "a:":
            colon = value.index(":", pos + 2)
            size = int(value[pos + 2 : colon])
            cursor = colon + 2  # skip opening brace
            result: dict = {}
            for _ in range(size):
                key, cursor = parse(cursor)
                item, cursor = parse(cursor)
                result[str(key)] = item
            if value[cursor : cursor + 1] != "}":
                raise ValueError("bad array")
            return result, cursor + 1
        raise ValueError(f"bad tag at {pos}")

    try:
        result, end = parse(0)
    except (ValueError, IndexError):
        return False
    return result if end == len(value) else False


def php_gzuncompress(value: str):
    try:
        return zlib.decompress(_latin1(value)).decode("latin-1")
    except zlib.error:
        return False


# --- paths / dates / misc ---------------------------------------------------


def php_basename(path: str, suffix: str = "") -> str:
    trimmed = path.rstrip("/")
    if not trimmed:
        return ""
    base = trimmed[trimmed.rfind("/") + 1 :]
    if suffix and base != suffix and base.endswith(suffix):
        base = base[: -len(suffix)]
    return base


def php_dirname(path: str) -> str:
    trimmed = path.rstrip("/")
    if not trimmed:
        return "/" if path else ""
    index = trimmed.rfind("/")
    if index < 0:
        return "."
    if index == 0:
        return "/"
    return trimmed[:index]


def php_pathinfo(path: str) -> dict:
    base = php_basename(path)
    dot = base.rfind(".")
    info = {"dirname": php_dirname(path), "basename": base}
    if dot > 0:
        info["extension"] = base[dot + 1 :]
        info["filename"] = base[:dot]
    else:
        info["filename"] = base
    return info


_MONTHS = ["Jan", "Feb", "Mar", "Apr", "May", "Jun",
           "Jul", "Aug", "Sep", "Oct", "Nov", "Dec"]
_DAYS = ["Mon", "Tue", "Wed", "Thu", "Fri", "Sat", "Sun"]


def php_date(fmt: str, timestamp: int) -> str:
    t = _time.gmtime(timestamp)
    out: list[str] = []
    i = 0
    while i < len(fmt):
        char = fmt[i]
        if char == "\\" and i + 1 < len(fmt):
            out.append(fmt[i + 1])
            i += 2
            continue
        if char == "Y":
            out.append(f"{t.tm_year:04d}")
        elif char == "y":
            out.append(f"{t.tm_year % 100:02d}")
        elif char == "m":
            out.append(f"{t.tm_mon:02d}")
        elif char == "n":
            out.append(str(t.tm_mon))
        elif char == "d":
            out.append(f"{t.tm_mday:02d}")
        elif char == "j":
            out.append(str(t.tm_mday))
        elif char == "H":
            out.append(f"{t.tm_hour:02d}")
        elif char == "G":
            out.append(str(t.tm_hour))
        elif char == "i":
            out.append(f"{t.tm_min:02d}")
        elif char == "s":
            out.append(f"{t.tm_sec:02d}")
        elif char == "D":
            out.append(_DAYS[t.tm_wday])
        elif char == "M":
            out.append(_MONTHS[t.tm_mon - 1])
        elif char == "N":
            out.append(str(t.tm_wday + 1))
        elif char == "w":
            out.append(str((t.tm_wday + 1) % 7))
        elif char == "U":
            out.append(str(timestamp))
        else:
            out.append(char)
        i += 1
    return "".join(out)


_GETTYPE_NAMES = [
    (bool, "boolean"),
    (int, "integer"),
    (float, "double"),
    (str, "string"),
    (dict, "array"),
]


def php_gettype(value) -> str:
    if value is None:
        return "NULL"
    for kind, name in _GETTYPE_NAMES:
        if isinstance(value, kind):
            return name
    return "object"


# --- predicates (must agree with the refinement languages) ------------------


@lru_cache(maxsize=256)
def _search_dfa(pattern_text: str, php: bool, ignore_case: bool):
    pattern = (
        parse_php_regex(pattern_text)
        if php
        else parse_regex(pattern_text, ignore_case=ignore_case)
    )
    return search_language(pattern).determinize()


def php_preg_match(pattern_text: str, subject: str) -> int:
    """Truth value via the *analysis's own* regex engine: branch
    refinement intersects with ``search_language(pattern)``, so concrete
    evaluation must use the same language or predicate semantics could
    drift between the two sides of the differential check."""
    try:
        return 1 if _search_dfa(pattern_text, True, False).accepts_string(subject) else 0
    except RegexError as exc:
        raise ValueError(str(exc)) from exc


def php_ereg(pattern_text: str, subject: str, ignore_case: bool = False):
    try:
        matched = _search_dfa(pattern_text, False, ignore_case).accepts_string(subject)
    except RegexError as exc:
        raise ValueError(str(exc)) from exc
    return 1 if matched else False


def php_predicate(name: str, value) -> bool:
    """The character-class predicates, evaluated from the very same
    :data:`PREDICATE_PATTERNS` the branch refinement uses."""
    return re.search(PREDICATE_PATTERNS[name], to_php_str(value)) is not None


def php_in_array(needle, haystack) -> bool:
    if not isinstance(haystack, dict):
        return False
    target = to_php_str(needle)
    return any(to_php_str(item) == target for item in haystack.values())


# --- array-shaped results ----------------------------------------------------


def php_explode(delimiter: str, subject: str, limit: int | None = None):
    if not delimiter:
        return False
    pieces = subject.split(delimiter)
    if limit is not None and limit > 0 and len(pieces) > limit:
        pieces = pieces[: limit - 1] + [delimiter.join(pieces[limit - 1 :])]
    elif limit is not None and limit < 0:
        pieces = pieces[:limit] or []
    return pieces


def php_str_split(subject: str, length: int = 1):
    if length < 1:
        return False
    return [subject[i : i + length] for i in range(0, len(subject), length)] or [""]


def php_preg_split(pattern_text: str, subject: str):
    return compile_php_pattern(pattern_text).split(subject)


def php_posix_split(pattern_text: str, subject: str):
    return re.split(pattern_text, subject)


def php_implode(glue, pieces) -> str:
    if isinstance(glue, dict) and not isinstance(pieces, dict):
        glue, pieces = pieces, glue
    if not isinstance(pieces, dict):
        return to_php_str(pieces)
    glue_text = to_php_str(glue) if glue is not None else ""
    return glue_text.join(to_php_str(item) for item in pieces.values())


# --- the registry ------------------------------------------------------------

CONCRETE: dict[str, ConcreteSpec] = {
    # escaping (charwise: the models are exact per-character FSTs)
    "addslashes": ConcreteSpec(
        lambda args, nodes, state: php_addslashes(_str_at(args, 0)), "charwise"
    ),
    "stripslashes": ConcreteSpec(
        lambda args, nodes, state: php_stripslashes(_str_at(args, 0)), "charwise"
    ),
    "mysql_real_escape_string": ConcreteSpec(
        lambda args, nodes, state: php_mysql_escape(_str_at(args, 0)), "charwise"
    ),
    "mysql_escape_string": ConcreteSpec(
        lambda args, nodes, state: php_mysql_escape(_str_at(args, 0)), "charwise"
    ),
    "mysqli_real_escape_string": ConcreteSpec(
        lambda args, nodes, state: php_mysql_escape(
            _str_at(args, 1 if len(args) > 1 else 0)
        ),
        "charwise",
        subject=1,
    ),
    "pg_escape_string": ConcreteSpec(
        lambda args, nodes, state: php_pg_escape(_str_at(args, 0)), "charwise"
    ),
    "sqlite_escape_string": ConcreteSpec(
        lambda args, nodes, state: php_sqlite_escape(_str_at(args, 0)), "charwise"
    ),
    # prepared-statement shim: the query is the taint-free template
    # (parameters are bound out of band), matching the abstract model
    "sqlciv_prepare": ConcreteSpec(
        lambda args, nodes, state: _str_at(args, 0), "drop"
    ),
    "htmlspecialchars": ConcreteSpec(
        lambda args, nodes, state: php_htmlspecialchars(
            _str_at(args, 0), _quote_style(nodes)
        ),
        "charwise",
    ),
    "htmlentities": ConcreteSpec(
        lambda args, nodes, state: php_htmlspecialchars(
            _str_at(args, 0), _quote_style(nodes)
        ),
        "charwise",
    ),
    # the model wraps the argument in trusted quote literals and labels
    # the whole quoted result, so the concrete result is one tainted
    # segment — not a charwise transducer image
    "escapeshellarg": ConcreteSpec(
        lambda args, nodes, state: php_escapeshellarg(_str_at(args, 0)), "whole"
    ),
    "preg_quote": ConcreteSpec(
        lambda args, nodes, state: php_preg_quote(_str_at(args, 0)), "charwise"
    ),
    "quotemeta": ConcreteSpec(
        lambda args, nodes, state: php_quotemeta(_str_at(args, 0)), "charwise"
    ),
    # replacement
    "str_replace": ConcreteSpec(
        lambda args, nodes, state: php_str_replace(
            _at(args, 0), _at(args, 1), _str_at(args, 2)
        ),
        "charwise",
        subject=2,
    ),
    "str_ireplace": ConcreteSpec(
        lambda args, nodes, state: php_str_ireplace(
            _at(args, 0), _at(args, 1), _str_at(args, 2)
        ),
        "whole",
    ),
    "preg_replace": ConcreteSpec(
        lambda args, nodes, state: php_preg_replace(
            _at(args, 0), _at(args, 1), _str_at(args, 2)
        ),
        "charwise",
        subject=2,
    ),
    "ereg_replace": ConcreteSpec(
        lambda args, nodes, state: php_ereg_replace(
            _str_at(args, 0), _str_at(args, 1), _str_at(args, 2)
        ),
        "charwise",
        subject=2,
    ),
    "eregi_replace": ConcreteSpec(
        lambda args, nodes, state: php_ereg_replace(
            _str_at(args, 0), _str_at(args, 1), _str_at(args, 2), ignore_case=True
        ),
        "charwise",
        subject=2,
    ),
    "strtr": ConcreteSpec(
        lambda args, nodes, state: php_strtr(
            _str_at(args, 0), _at(args, 1), _at(args, 2)
        ),
        "charwise",
    ),
    "nl2br": ConcreteSpec(
        lambda args, nodes, state: php_nl2br(_str_at(args, 0)), "charwise"
    ),
    # case / shape
    "strtolower": ConcreteSpec(
        lambda args, nodes, state: php_strtolower(_str_at(args, 0)), "charwise"
    ),
    "strtoupper": ConcreteSpec(
        lambda args, nodes, state: php_strtoupper(_str_at(args, 0)), "charwise"
    ),
    "mb_strtolower": ConcreteSpec(
        lambda args, nodes, state: php_strtolower(_str_at(args, 0)), "charwise"
    ),
    "mb_strtoupper": ConcreteSpec(
        lambda args, nodes, state: php_strtoupper(_str_at(args, 0)), "charwise"
    ),
    "lcfirst": ConcreteSpec(
        lambda args, nodes, state: php_lcfirst(_str_at(args, 0)), "whole"
    ),
    "ucfirst": ConcreteSpec(
        lambda args, nodes, state: php_ucfirst(_str_at(args, 0)), "whole"
    ),
    "ucwords": ConcreteSpec(
        lambda args, nodes, state: php_ucwords(_str_at(args, 0)), "whole"
    ),
    "trim": ConcreteSpec(
        lambda args, nodes, state: php_trim(
            _str_at(args, 0), _str_at(args, 1) if len(args) > 1 else None
        ),
        "interp",
    ),
    "ltrim": ConcreteSpec(
        lambda args, nodes, state: php_ltrim(
            _str_at(args, 0), _str_at(args, 1) if len(args) > 1 else None
        ),
        "interp",
    ),
    "rtrim": ConcreteSpec(
        lambda args, nodes, state: php_rtrim(
            _str_at(args, 0), _str_at(args, 1) if len(args) > 1 else None
        ),
        "interp",
    ),
    "chop": ConcreteSpec(
        lambda args, nodes, state: php_rtrim(
            _str_at(args, 0), _str_at(args, 1) if len(args) > 1 else None
        ),
        "interp",
    ),
    "strrev": ConcreteSpec(
        lambda args, nodes, state: _str_at(args, 0)[::-1], "interp"
    ),
    "substr": ConcreteSpec(
        lambda args, nodes, state: php_substr(
            _str_at(args, 0),
            php_int(_at(args, 1)),
            php_int(_at(args, 2)) if len(args) > 2 else None,
        ),
        "interp",
    ),
    "mb_substr": ConcreteSpec(
        lambda args, nodes, state: php_substr(
            _str_at(args, 0),
            php_int(_at(args, 1)),
            php_int(_at(args, 2)) if len(args) > 2 else None,
        ),
        "interp",
    ),
    "str_repeat": ConcreteSpec(
        lambda args, nodes, state: _str_at(args, 0) * max(0, php_int(_at(args, 1))),
        "interp",
    ),
    "str_pad": ConcreteSpec(
        lambda args, nodes, state: php_str_pad(
            _str_at(args, 0),
            php_int(_at(args, 1)),
            _str_at(args, 2) if len(args) > 2 else " ",
            nodes[3].name
            if len(nodes) > 3 and isinstance(nodes[3], ast.ConstFetch)
            else "STR_PAD_RIGHT",
        ),
        "interp",
    ),
    "wordwrap": ConcreteSpec(
        lambda args, nodes, state: php_wordwrap(
            _str_at(args, 0),
            php_int(_at(args, 1)) if len(args) > 1 else 75,
            _str_at(args, 2) if len(args) > 2 else "\n",
            php_bool(_at(args, 3)) if len(args) > 3 else False,
        ),
        "whole",
    ),
    "chunk_split": ConcreteSpec(
        lambda args, nodes, state: php_chunk_split(
            _str_at(args, 0),
            php_int(_at(args, 1)) if len(args) > 1 else 76,
            _str_at(args, 2) if len(args) > 2 else "\r\n",
        ),
        "whole",
    ),
    "strip_tags": ConcreteSpec(
        lambda args, nodes, state: php_strip_tags(_str_at(args, 0)), "blur"
    ),
    "stripcslashes": ConcreteSpec(
        lambda args, nodes, state: php_stripcslashes(_str_at(args, 0)), "whole"
    ),
    "html_entity_decode": ConcreteSpec(
        lambda args, nodes, state: _html.unescape(_str_at(args, 0)), "whole"
    ),
    "htmlspecialchars_decode": ConcreteSpec(
        lambda args, nodes, state: php_htmlspecialchars_decode(
            _str_at(args, 0), _quote_style(nodes)
        ),
        "whole",
    ),
    # formatting / structure (taint woven by the interpreter)
    "sprintf": ConcreteSpec(
        lambda args, nodes, state: php_sprintf(_str_at(args, 0), args[1:]), "interp"
    ),
    "vsprintf": ConcreteSpec(
        lambda args, nodes, state: php_sprintf(
            _str_at(args, 0),
            list(_at(args, 1).values()) if isinstance(_at(args, 1), dict) else [],
        ),
        "interp",
    ),
    "implode": ConcreteSpec(
        lambda args, nodes, state: php_implode(_at(args, 0), _at(args, 1)), "interp"
    ),
    "join": ConcreteSpec(
        lambda args, nodes, state: php_implode(_at(args, 0), _at(args, 1)), "interp"
    ),
    "explode": ConcreteSpec(
        lambda args, nodes, state: php_explode(
            _str_at(args, 0),
            _str_at(args, 1),
            php_int(_at(args, 2)) if len(args) > 2 else None,
        ),
        "interp",
    ),
    "str_split": ConcreteSpec(
        lambda args, nodes, state: php_str_split(
            _str_at(args, 0), php_int(_at(args, 1)) if len(args) > 1 else 1
        ),
        "interp",
    ),
    "preg_split": ConcreteSpec(
        lambda args, nodes, state: php_preg_split(_str_at(args, 0), _str_at(args, 1)),
        "interp",
    ),
    "split": ConcreteSpec(
        lambda args, nodes, state: php_posix_split(_str_at(args, 0), _str_at(args, 1)),
        "interp",
    ),
    # numbers (untainted regular sets)
    "intval": ConcreteSpec(
        lambda args, nodes, state: php_intval(
            _at(args, 0), php_int(_at(args, 1)) if len(args) > 1 else 10
        )
    ),
    "floatval": ConcreteSpec(lambda args, nodes, state: php_float(_at(args, 0))),
    "doubleval": ConcreteSpec(lambda args, nodes, state: php_float(_at(args, 0))),
    "abs": ConcreteSpec(lambda args, nodes, state: abs(php_float(_at(args, 0)))),
    "round": ConcreteSpec(
        lambda args, nodes, state: php_round(
            php_float(_at(args, 0)), php_int(_at(args, 1)) if len(args) > 1 else 0
        )
    ),
    "floor": ConcreteSpec(
        lambda args, nodes, state: float(math.floor(php_float(_at(args, 0))))
    ),
    "ceil": ConcreteSpec(
        lambda args, nodes, state: float(math.ceil(php_float(_at(args, 0))))
    ),
    "count": ConcreteSpec(lambda args, nodes, state: php_count(_at(args, 0))),
    "sizeof": ConcreteSpec(lambda args, nodes, state: php_count(_at(args, 0))),
    "strlen": ConcreteSpec(lambda args, nodes, state: len(_str_at(args, 0))),
    "mb_strlen": ConcreteSpec(lambda args, nodes, state: len(_str_at(args, 0))),
    "strpos": ConcreteSpec(
        lambda args, nodes, state: php_strpos(
            _str_at(args, 0),
            _str_at(args, 1),
            php_int(_at(args, 2)) if len(args) > 2 else 0,
        )
    ),
    "strrpos": ConcreteSpec(
        lambda args, nodes, state: php_strrpos(_str_at(args, 0), _str_at(args, 1))
    ),
    "time": ConcreteSpec(lambda args, nodes, state: state.clock),
    "mktime": ConcreteSpec(lambda args, nodes, state: state.clock),
    "rand": ConcreteSpec(
        lambda args, nodes, state: state.rng.randint(
            php_int(_at(args, 0)) if len(args) > 1 else 0,
            php_int(_at(args, 1)) if len(args) > 1 else 2**31 - 1,
        )
    ),
    "mt_rand": ConcreteSpec(
        lambda args, nodes, state: state.rng.randint(
            php_int(_at(args, 0)) if len(args) > 1 else 0,
            php_int(_at(args, 1)) if len(args) > 1 else 2**31 - 1,
        )
    ),
    "number_format": ConcreteSpec(
        lambda args, nodes, state: php_number_format(
            php_float(_at(args, 0)),
            php_int(_at(args, 1)) if len(args) > 1 else 0,
            _str_at(args, 2) if len(args) > 2 else ".",
            _str_at(args, 3) if len(args) > 3 else ",",
        )
    ),
    "ord": ConcreteSpec(
        lambda args, nodes, state: ord(_str_at(args, 0)[0]) if _str_at(args, 0) else 0
    ),
    "hexdec": ConcreteSpec(lambda args, nodes, state: php_hexdec(_str_at(args, 0))),
    "octdec": ConcreteSpec(lambda args, nodes, state: php_octdec(_str_at(args, 0))),
    "bindec": ConcreteSpec(lambda args, nodes, state: php_bindec(_str_at(args, 0))),
    # digests / encodings
    "md5": ConcreteSpec(
        lambda args, nodes, state: hashlib.md5(_latin1(_str_at(args, 0))).hexdigest()
    ),
    "sha1": ConcreteSpec(
        lambda args, nodes, state: hashlib.sha1(_latin1(_str_at(args, 0))).hexdigest()
    ),
    "crc32": ConcreteSpec(
        lambda args, nodes, state: zlib.crc32(_latin1(_str_at(args, 0))) & 0xFFFFFFFF
    ),
    "uniqid": ConcreteSpec(
        lambda args, nodes, state: f"{state.clock:08x}{state.next_uniqid():05x}"
    ),
    "dechex": ConcreteSpec(
        lambda args, nodes, state: format(_unsigned64(php_int(_at(args, 0))), "x")
    ),
    "decoct": ConcreteSpec(
        lambda args, nodes, state: format(_unsigned64(php_int(_at(args, 0))), "o")
    ),
    "decbin": ConcreteSpec(
        lambda args, nodes, state: format(_unsigned64(php_int(_at(args, 0))), "b")
    ),
    "bin2hex": ConcreteSpec(
        lambda args, nodes, state: "".join(
            f"{ord(char) & 0xFF:02x}" for char in _str_at(args, 0)
        ),
        "whole",
    ),
    "urlencode": ConcreteSpec(
        lambda args, nodes, state: php_urlencode(_str_at(args, 0)), "whole"
    ),
    "rawurlencode": ConcreteSpec(
        lambda args, nodes, state: php_rawurlencode(_str_at(args, 0)), "whole"
    ),
    "base64_encode": ConcreteSpec(
        lambda args, nodes, state: base64.b64encode(_latin1(_str_at(args, 0))).decode(
            "ascii"
        ),
        "whole",
    ),
    "chr": ConcreteSpec(lambda args, nodes, state: chr(php_int(_at(args, 0)) % 256)),
    "date": ConcreteSpec(
        lambda args, nodes, state: php_date(
            _str_at(args, 0),
            php_int(_at(args, 1)) if len(args) > 1 else state.clock,
        )
    ),
    "strftime": ConcreteSpec(
        lambda args, nodes, state: _time.strftime(
            _str_at(args, 0),
            _time.gmtime(php_int(_at(args, 1)) if len(args) > 1 else state.clock),
        )
    ),
    "gmdate": ConcreteSpec(
        lambda args, nodes, state: php_date(
            _str_at(args, 0),
            php_int(_at(args, 1)) if len(args) > 1 else state.clock,
        )
    ),
    # expanding / decoding (Σ* models: whole-result taint)
    "urldecode": ConcreteSpec(
        lambda args, nodes, state: php_urldecode(_str_at(args, 0)), "whole"
    ),
    "rawurldecode": ConcreteSpec(
        lambda args, nodes, state: php_rawurldecode(_str_at(args, 0)), "whole"
    ),
    "base64_decode": ConcreteSpec(
        lambda args, nodes, state: php_base64_decode(_str_at(args, 0)), "whole"
    ),
    "utf8_encode": ConcreteSpec(
        lambda args, nodes, state: php_utf8_encode(_str_at(args, 0)), "whole"
    ),
    "utf8_decode": ConcreteSpec(
        lambda args, nodes, state: php_utf8_decode(_str_at(args, 0)), "whole"
    ),
    "convert_uuencode": ConcreteSpec(
        lambda args, nodes, state: php_convert_uuencode(_str_at(args, 0)), "whole"
    ),
    "serialize": ConcreteSpec(
        lambda args, nodes, state: php_serialize(_at(args, 0)), "whole"
    ),
    "unserialize": ConcreteSpec(
        lambda args, nodes, state: php_unserialize(_str_at(args, 0)), "whole"
    ),
    "gzcompress": ConcreteSpec(
        lambda args, nodes, state: zlib.compress(_latin1(_str_at(args, 0))).decode(
            "latin-1"
        ),
        "whole",
    ),
    "gzuncompress": ConcreteSpec(
        lambda args, nodes, state: php_gzuncompress(_str_at(args, 0)), "whole"
    ),
    "strval": ConcreteSpec(lambda args, nodes, state: _str_at(args, 0), "interp"),
    # misc string
    "basename": ConcreteSpec(
        lambda args, nodes, state: php_basename(
            _str_at(args, 0), _str_at(args, 1) if len(args) > 1 else ""
        ),
        "interp",
    ),
    "dirname": ConcreteSpec(
        lambda args, nodes, state: php_dirname(_str_at(args, 0)), "interp"
    ),
    "pathinfo": ConcreteSpec(
        lambda args, nodes, state: php_pathinfo(_str_at(args, 0)), "interp"
    ),
    "strstr": ConcreteSpec(
        lambda args, nodes, state: php_strstr(
            _str_at(args, 0),
            _str_at(args, 1),
            php_bool(_at(args, 2)) if len(args) > 2 else False,
        ),
        "interp",
    ),
    "stristr": ConcreteSpec(
        lambda args, nodes, state: php_stristr(_str_at(args, 0), _str_at(args, 1)),
        "interp",
    ),
    "strrchr": ConcreteSpec(
        lambda args, nodes, state: php_strrchr(_str_at(args, 0), _str_at(args, 1)),
        "interp",
    ),
    "strchr": ConcreteSpec(
        lambda args, nodes, state: php_strstr(_str_at(args, 0), _str_at(args, 1)),
        "interp",
    ),
    "get_magic_quotes_gpc": ConcreteSpec(lambda args, nodes, state: 0),
    "gettype": ConcreteSpec(lambda args, nodes, state: php_gettype(_at(args, 0))),
    "php_uname": ConcreteSpec(lambda args, nodes, state: "Linux"),
    "phpversion": ConcreteSpec(lambda args, nodes, state: "5.4.45"),
    # predicates — no string model (analysis refines branches instead),
    # but the interpreter needs their truth values, and those must come
    # from the same languages the refinement uses
    "preg_match": ConcreteSpec(
        lambda args, nodes, state: php_preg_match(_str_at(args, 0), _str_at(args, 1))
    ),
    "preg_match_all": ConcreteSpec(
        lambda args, nodes, state: php_preg_match(_str_at(args, 0), _str_at(args, 1))
    ),
    "ereg": ConcreteSpec(
        lambda args, nodes, state: php_ereg(_str_at(args, 0), _str_at(args, 1))
    ),
    "eregi": ConcreteSpec(
        lambda args, nodes, state: php_ereg(
            _str_at(args, 0), _str_at(args, 1), ignore_case=True
        )
    ),
    "is_numeric": ConcreteSpec(
        lambda args, nodes, state: php_predicate("is_numeric", _at(args, 0))
    ),
    "ctype_digit": ConcreteSpec(
        lambda args, nodes, state: php_predicate("ctype_digit", _at(args, 0))
    ),
    "ctype_alnum": ConcreteSpec(
        lambda args, nodes, state: php_predicate("ctype_alnum", _at(args, 0))
    ),
    "ctype_alpha": ConcreteSpec(
        lambda args, nodes, state: php_predicate("ctype_alpha", _at(args, 0))
    ),
    "ctype_xdigit": ConcreteSpec(
        lambda args, nodes, state: php_predicate("ctype_xdigit", _at(args, 0))
    ),
    "is_int": ConcreteSpec(
        lambda args, nodes, state: php_predicate("is_int", _at(args, 0))
    ),
    "is_integer": ConcreteSpec(
        lambda args, nodes, state: php_predicate("is_integer", _at(args, 0))
    ),
    "in_array": ConcreteSpec(
        lambda args, nodes, state: php_in_array(_at(args, 0), _at(args, 1))
    ),
}


def concrete_call(name: str, args: list, nodes: list, state: ConcreteState):
    """Evaluate builtin ``name`` concretely; ``KeyError`` if unmodeled.

    ``NO_EFFECT`` names return ``""`` to mirror ``model_call``'s
    ``literal("")`` — a deliberate subset semantics (``print`` really
    returns 1; our generator never uses it in value position)."""
    if name in NO_EFFECT:
        return ""
    return CONCRETE[name].fn(args, nodes, state)
