"""A regular-expression engine for the PCRE/POSIX subset web code uses.

PHP programs filter input with ``preg_match``, ``ereg``/``eregi``, and
``preg_replace``.  The string-taint analysis needs the *language* of such
patterns (as automata), not a matcher, so this module compiles a regex
AST to :class:`~repro.lang.fsa.NFA`.

Two match semantics matter (this distinction is the heart of the paper's
Figure 2 bug):

* :func:`full_match_language` — strings the pattern matches *entirely*
  (implicit anchors at both ends).
* :func:`search_language` — strings the pattern matches *somewhere*
  (``preg_match``/``ereg`` semantics).  ``^``/``$`` anchors inside the
  pattern constrain where; an unanchored ``[0-9]+`` accepts
  ``1'; DROP TABLE …`` because one digit occurs somewhere.

Supported syntax: literals, ``.``, escapes (``\\d \\D \\w \\W \\s \\S
\\n \\t \\r \\xHH`` and escaped punctuation), character classes with
ranges and negation, ``* + ? {m} {m,} {m,n}`` (greedy and lazy — the
languages coincide), alternation, capturing and ``(?:…)`` groups, and
``^``/``$`` anchors.
"""

from __future__ import annotations

from typing import NamedTuple

from .charset import ALNUM, CharSet, DIGITS, SPACE, WORD
from .fsa import NFA


class RegexError(ValueError):
    """Raised on a malformed pattern."""


# --------------------------------------------------------------------------
# AST
# --------------------------------------------------------------------------


class Node:
    """A regex AST node: an immutable value (equal and hashing by its
    ``_fields``), written as a plain class so importing this module
    generates no code (DESIGN §5n)."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        values = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({values})"


class Chars(Node):
    """One character drawn from a set."""

    __slots__ = _fields = ("charset",)

    def __init__(self, charset: CharSet) -> None:
        self.charset = charset


class Literal(Node):
    """A literal string (a run of fixed characters)."""

    __slots__ = _fields = ("text",)

    def __init__(self, text: str) -> None:
        self.text = text


class Seq(Node):
    __slots__ = _fields = ("parts",)

    def __init__(self, parts: tuple[Node, ...]) -> None:
        self.parts = parts


class Alt(Node):
    __slots__ = _fields = ("options",)

    def __init__(self, options: tuple[Node, ...]) -> None:
        self.options = options


class Repeat(Node):
    __slots__ = _fields = ("node", "low", "high")

    def __init__(self, node: Node, low: int, high: int | None) -> None:
        self.node = node
        self.low = low
        self.high = high  # None = unbounded


class Group(Node):
    __slots__ = _fields = ("node", "index")

    def __init__(self, node: Node, index: int | None) -> None:
        self.node = node
        self.index = index  # None for non-capturing


class Anchor(Node):
    __slots__ = _fields = ("kind",)

    def __init__(self, kind: str) -> None:
        self.kind = kind  # "start" or "end"


class Pattern:
    """A parsed pattern plus its flags and capture-group count (equal
    by value like a :class:`Node`, but not hashable)."""

    __slots__ = _fields = ("root", "ignore_case", "group_count", "source")
    _key = Node._key
    __eq__ = Node.__eq__
    __repr__ = Node.__repr__
    __hash__ = None

    def __init__(
        self,
        root: Node,
        ignore_case: bool = False,
        group_count: int = 0,
        source: str = "",
    ) -> None:
        self.root = root
        self.ignore_case = ignore_case
        self.group_count = group_count
        self.source = source


_CLASS_ESCAPES = {
    "d": DIGITS,
    "D": DIGITS.complement(),
    "w": WORD,
    "W": WORD.complement(),
    "s": SPACE,
    "S": SPACE.complement(),
}

_CHAR_ESCAPES = {
    "n": "\n",
    "t": "\t",
    "r": "\r",
    "f": "\f",
    "v": "\v",
    "0": "\0",
    "a": "\a",
    "e": "\x1b",
}

#: ``.`` in PCRE excludes newline by default.
DOT = CharSet.of("\n").complement()


class _Parser:
    def __init__(self, source: str) -> None:
        self.source = source
        self.pos = 0
        self.group_count = 0

    # -- plumbing ------------------------------------------------------

    def peek(self) -> str | None:
        return self.source[self.pos] if self.pos < len(self.source) else None

    def take(self) -> str:
        if self.pos >= len(self.source):
            raise RegexError(f"unexpected end of pattern: {self.source!r}")
        char = self.source[self.pos]
        self.pos += 1
        return char

    def expect(self, char: str) -> None:
        if self.take() != char:
            raise RegexError(f"expected {char!r} at {self.pos} in {self.source!r}")

    # -- grammar ---------------------------------------------------------

    def parse(self) -> Node:
        node = self.alternation()
        if self.pos != len(self.source):
            raise RegexError(f"trailing input at {self.pos} in {self.source!r}")
        return node

    def alternation(self) -> Node:
        options = [self.sequence()]
        while self.peek() == "|":
            self.take()
            options.append(self.sequence())
        if len(options) == 1:
            return options[0]
        return Alt(tuple(options))

    def sequence(self) -> Node:
        parts: list[Node] = []
        while self.peek() not in (None, "|", ")"):
            parts.append(self.quantified())
        if len(parts) == 1:
            return parts[0]
        return Seq(tuple(parts))

    def quantified(self) -> Node:
        atom = self.atom()
        while True:
            char = self.peek()
            if char == "*":
                self.take()
                atom = Repeat(atom, 0, None)
            elif char == "+":
                self.take()
                atom = Repeat(atom, 1, None)
            elif char == "?":
                self.take()
                atom = Repeat(atom, 0, 1)
            elif char == "{":
                bound = self._try_counted()
                if bound is None:
                    break
                atom = Repeat(atom, bound[0], bound[1])
            else:
                break
            # lazy / possessive modifiers do not change the language
            if self.peek() in ("?", "+") and isinstance(atom, Repeat):
                modifier = self.take()
                if modifier == "+":
                    # possessive: language-equal for our purposes
                    pass
        return atom

    def _try_counted(self) -> tuple[int, int | None] | None:
        """Parse ``{m}``, ``{m,}``, ``{m,n}``; None if not a counted repeat."""
        mark = self.pos
        self.take()  # "{"
        digits = ""
        while self.peek() and self.peek().isdigit():
            digits += self.take()
        if not digits:
            self.pos = mark
            return None
        low = int(digits)
        if self.peek() == "}":
            self.take()
            return (low, low)
        if self.peek() != ",":
            self.pos = mark
            return None
        self.take()
        digits = ""
        while self.peek() and self.peek().isdigit():
            digits += self.take()
        if self.peek() != "}":
            self.pos = mark
            return None
        self.take()
        return (low, int(digits) if digits else None)

    def atom(self) -> Node:
        char = self.take()
        if char == "(":
            if self.peek() == "?":
                self.take()
                nxt = self.take()
                if nxt == ":":
                    node = self.alternation()
                    self.expect(")")
                    return Group(node, None)
                if nxt in ("=", "!"):
                    # Lookaheads: we cannot express them regularly in
                    # general; a positive lookahead is dropped (language
                    # over-approximation, sound for refinement use).
                    self.alternation()
                    self.expect(")")
                    return Seq(())
                raise RegexError(f"unsupported group (?{nxt} in {self.source!r}")
            self.group_count += 1
            index = self.group_count
            node = self.alternation()
            self.expect(")")
            return Group(node, index)
        if char == "[":
            return Chars(self._char_class())
        if char == ".":
            return Chars(DOT)
        if char == "^":
            return Anchor("start")
        if char == "$":
            return Anchor("end")
        if char == "\\":
            return self._escape()
        if char in ")|":
            raise RegexError(f"unexpected {char!r} in {self.source!r}")
        return Literal(char)

    def _escape(self) -> Node:
        char = self.take()
        if char in _CLASS_ESCAPES:
            return Chars(_CLASS_ESCAPES[char])
        if char in _CHAR_ESCAPES:
            return Literal(_CHAR_ESCAPES[char])
        if char == "x":
            hex_digits = self.take() + self.take()
            return Literal(chr(int(hex_digits, 16)))
        if char == "b":
            # word boundary: zero-width; drop (over-approximation)
            return Seq(())
        if char.isdigit():
            raise RegexError("backreferences are not regular")
        return Literal(char)

    def _char_class(self) -> CharSet:
        negate = False
        if self.peek() == "^":
            self.take()
            negate = True
        members: list[CharSet] = []
        first = True
        while True:
            char = self.peek()
            if char is None:
                raise RegexError(f"unterminated class in {self.source!r}")
            if char == "]" and not first:
                self.take()
                break
            first = False
            item = self._class_item()
            if (
                isinstance(item, str)
                and self.peek() == "-"
                and self.pos + 1 < len(self.source)
                and self.source[self.pos + 1] != "]"
            ):
                self.take()  # "-"
                upper = self._class_item()
                if not isinstance(upper, str):
                    raise RegexError(f"bad range in class in {self.source!r}")
                members.append(CharSet.range(item, upper))
            elif isinstance(item, str):
                members.append(CharSet.of(item))
            else:
                members.append(item)
        charset = CharSet.union_of(members)
        return charset.complement() if negate else charset

    def _class_item(self) -> str | CharSet:
        char = self.take()
        if char == "\\":
            esc = self.take()
            if esc in _CLASS_ESCAPES:
                return _CLASS_ESCAPES[esc]
            if esc in _CHAR_ESCAPES:
                return _CHAR_ESCAPES[esc]
            if esc == "x":
                return chr(int(self.take() + self.take(), 16))
            return esc
        if char == "[" and self.peek() == ":":
            return self._posix_class()
        return char

    def _posix_class(self) -> CharSet:
        self.take()  # ":"
        name = ""
        while self.peek() not in (":", None):
            name += self.take()
        self.expect(":")
        self.expect("]")
        table = {
            "digit": DIGITS,
            "alpha": CharSet.range("a", "z").union(CharSet.range("A", "Z")),
            "alnum": ALNUM,
            "space": SPACE,
            "upper": CharSet.range("A", "Z"),
            "lower": CharSet.range("a", "z"),
            "punct": CharSet([(0x21, 0x2F), (0x3A, 0x40), (0x5B, 0x60), (0x7B, 0x7E)]),
            "xdigit": DIGITS.union(CharSet.range("a", "f")).union(CharSet.range("A", "F")),
        }
        if name not in table:
            raise RegexError(f"unknown POSIX class [:{name}:]")
        return table[name]


def parse_regex(source: str, ignore_case: bool = False) -> Pattern:
    """Parse a bare regex (no delimiters) into a :class:`Pattern`."""
    parser = _Parser(source)
    root = parser.parse()
    return Pattern(
        root=root,
        ignore_case=ignore_case,
        group_count=parser.group_count,
        source=source,
    )


def parse_php_regex(delimited: str) -> Pattern:
    """Parse a PHP ``preg_*`` pattern with delimiters and flags.

    ``"/^[\\d]+$/i"`` → the pattern ``^[\\d]+$`` with ignore-case set.
    """
    if len(delimited) < 2:
        raise RegexError(f"pattern too short: {delimited!r}")
    open_delim = delimited[0]
    close_delim = {"(": ")", "[": "]", "{": "}", "<": ">"}.get(open_delim, open_delim)
    end = delimited.rfind(close_delim)
    if end <= 0:
        raise RegexError(f"missing closing delimiter in {delimited!r}")
    body = delimited[1:end]
    flags = delimited[end + 1 :]
    for flag in flags:
        if flag not in "imsxuUD":
            raise RegexError(f"unsupported flag {flag!r} in {delimited!r}")
    return parse_regex(body, ignore_case="i" in flags)


# --------------------------------------------------------------------------
# Compilation to NFA
# --------------------------------------------------------------------------


def _case_fold(charset: CharSet) -> CharSet:
    """Add the case-swapped ASCII letters (enough for web-code patterns)."""
    extra = []
    for lo, hi in charset.intervals:
        a_lo, a_hi = max(lo, ord("a")), min(hi, ord("z"))
        if a_lo <= a_hi:
            extra.append((a_lo - 32, a_hi - 32))
        b_lo, b_hi = max(lo, ord("A")), min(hi, ord("Z"))
        if b_lo <= b_hi:
            extra.append((b_lo + 32, b_hi + 32))
    return charset.union(CharSet(extra))


class _Compiled(NamedTuple):
    """Compilation result for one node under search semantics.

    ``starts_anchored``/``ends_anchored`` record whether a ``^``/``$``
    anchor constrains the corresponding side.
    """

    nfa: NFA
    starts_anchored: bool
    ends_anchored: bool


def _compile(node: Node, ignore_case: bool) -> _Compiled:
    if isinstance(node, Chars):
        charset = _case_fold(node.charset) if ignore_case else node.charset
        return _Compiled(NFA.from_charset(charset), False, False)
    if isinstance(node, Literal):
        if ignore_case:
            nfa = NFA.epsilon_language()
            for char in node.text:
                nfa = nfa.concat(NFA.from_charset(_case_fold(CharSet.of(char))))
            return _Compiled(nfa, False, False)
        return _Compiled(NFA.from_string(node.text), False, False)
    if isinstance(node, Anchor):
        return _Compiled(
            NFA.epsilon_language(),
            node.kind == "start",
            node.kind == "end",
        )
    if isinstance(node, Group):
        return _compile(node.node, ignore_case)
    if isinstance(node, Seq):
        if not node.parts:
            return _Compiled(NFA.epsilon_language(), False, False)
        parts = [_compile(p, ignore_case) for p in node.parts]
        nfa = parts[0].nfa
        for part in parts[1:]:
            nfa = nfa.concat(part.nfa)
        return _Compiled(nfa, parts[0].starts_anchored, parts[-1].ends_anchored)
    if isinstance(node, Alt):
        parts = [_compile(p, ignore_case) for p in node.options]
        nfa = parts[0].nfa
        for part in parts[1:]:
            nfa = nfa.union(part.nfa)
        # Mixed anchoring across alternatives: be conservative (treat the
        # whole alternation as unanchored unless every branch is anchored).
        return _Compiled(
            nfa,
            all(p.starts_anchored for p in parts),
            all(p.ends_anchored for p in parts),
        )
    if isinstance(node, Repeat):
        inner = _compile(node.node, ignore_case)
        return _Compiled(inner.nfa.repeat(node.low, node.high), False, False)
    raise TypeError(f"unknown node {node!r}")


def compile_pattern(pattern: Pattern) -> NFA:
    """NFA of the strings the pattern matches exactly (anchors ignored)."""
    return _compile(pattern.root, pattern.ignore_case).nfa


def full_match_language(pattern: Pattern) -> NFA:
    """Language under full-string (both-ends-anchored) semantics."""
    return compile_pattern(pattern)


def search_language(pattern: Pattern) -> NFA:
    """Language of strings that *contain* a match (``preg_match`` truth).

    Anchors written in the pattern constrain the corresponding side; an
    unanchored side gains a ``Σ*`` wing.  This is exactly the semantics
    that makes the paper's Figure 2 check (``eregi('[0-9]+', …)`` with no
    anchors) pass attack strings through.
    """
    compiled = _compile(pattern.root, pattern.ignore_case)
    nfa = compiled.nfa
    if not compiled.starts_anchored:
        nfa = NFA.any_string().concat(nfa)
    if not compiled.ends_anchored:
        nfa = nfa.concat(NFA.any_string())
    return nfa


def literal_prefix(pattern: Pattern) -> str:
    """Longest fixed prefix every match starts with (used for heuristics)."""
    prefix = []
    node = pattern.root
    parts = node.parts if isinstance(node, Seq) else (node,)
    for part in parts:
        if isinstance(part, Literal):
            prefix.append(part.text)
        elif isinstance(part, Anchor):
            continue
        else:
            break
    return "".join(prefix)
