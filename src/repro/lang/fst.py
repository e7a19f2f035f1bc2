"""Finite-state transducers for modeling string operations.

The paper (§3.1.2, Figure 6) models PHP string functions — ``str_replace``,
``addslashes``, sanitizer-style ``preg_replace`` — as finite-state
transducers, and computes the *image* of a CFG under such a transducer.

Model
-----
Every transition consumes exactly one input character (drawn from a
:class:`~repro.lang.charset.CharSet` label) and emits a sequence of
*output items*.  An item is either a literal string or one of the markers
:data:`COPY` / :data:`LOWER` / :data:`UPPER`, which stand for the consumed
character (identity / lower-cased / upper-cased).  Marker outputs keep
transducers over huge charsets finite: ``A/A`` in the paper's Figure 6 is
one transition ``(q, Σ∖{'}, (COPY,), q)``.

States may carry a *final output* — a literal flushed when the input ends
in that state.  This is how a replace-all transducer emits a buffered
partial match at end of input (e.g. ``str_replace("''", "'", "x'")``
must still emit the lone quote).

There are no input-epsilon transitions; everything the analysis needs
(including multi-character outputs like ``addslashes``) fits without
them, and their absence keeps the grammar-image construction simple.
"""

from __future__ import annotations

from functools import lru_cache

from dataclasses import dataclass
from typing import Iterable, Sequence

from .charset import CharSet


class _Marker:
    """Singleton output markers referring to the consumed character."""

    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return self.name


COPY = _Marker("COPY")
LOWER = _Marker("LOWER")
UPPER = _Marker("UPPER")

OutputItem = str | _Marker
Output = tuple[OutputItem, ...]


@dataclass(frozen=True)
class Transition:
    label: CharSet
    output: Output
    dst: int


class FST:
    """A finite-state transducer (1 char in, item sequence out)."""

    def __init__(self) -> None:
        self.num_states = 0
        self.start = 0
        self.transitions: dict[int, list[Transition]] = {}
        #: literal emitted if the input ends in this state (default "").
        self.final_output: dict[int, str] = {}
        #: states where input may legally end; None means "all states".
        self.accepts: set[int] | None = None

    def new_state(self) -> int:
        state = self.num_states
        self.num_states += 1
        return state

    def add_transition(self, src: int, label: CharSet, output: Output, dst: int) -> None:
        if label:
            self.transitions.setdefault(src, []).append(Transition(label, output, dst))

    def is_accepting(self, state: int) -> bool:
        return self.accepts is None or state in self.accepts

    # -- semantics -------------------------------------------------------

    def apply_to_string(self, text: str, limit: int = 256) -> set[str]:
        """All outputs the transducer can produce for ``text``.

        For the (deterministic) transducers the builtin models construct
        this is a singleton; nondeterministic models may return several.
        ``limit`` bounds the path explosion defensively.
        """
        frontier: list[tuple[int, str]] = [(self.start, "")]
        for char in text:
            next_frontier: list[tuple[int, str]] = []
            for state, out in frontier:
                for transition in self.transitions.get(state, ()):
                    if char in transition.label:
                        emitted = render_output(transition.output, char)
                        next_frontier.append((transition.dst, out + emitted))
                        if len(next_frontier) > limit:
                            raise FSTExplosion(
                                f"more than {limit} transducer paths on {text!r}"
                            )
            frontier = next_frontier
            if not frontier:
                return set()
        return {
            out + self.final_output.get(state, "")
            for state, out in frontier
            if self.is_accepting(state)
        }

    def apply_once(self, text: str) -> str:
        """The unique output for ``text`` (raises if not exactly one)."""
        outputs = self.apply_to_string(text)
        if len(outputs) != 1:
            raise ValueError(f"expected 1 output for {text!r}, got {sorted(outputs)}")
        return next(iter(outputs))

    # -- stock constructors ----------------------------------------------

    @staticmethod
    @lru_cache(maxsize=64)
    def identity() -> "FST":
        fst = FST()
        q0 = fst.new_state()
        fst.add_transition(q0, CharSet.any_char(), (COPY,), q0)
        return fst

    @staticmethod
    def char_map(mapping: Sequence[tuple[CharSet, Output]], default_copy: bool = True) -> "FST":
        """One-state transducer applying per-character rewrites.

        ``mapping`` is checked in order; overlapping earlier entries win.
        Characters matched by no entry are copied (if ``default_copy``)
        or deleted.
        """
        fst = FST()
        q0 = fst.new_state()
        remaining = CharSet.any_char()
        for charset, output in mapping:
            effective = charset.intersect(remaining)
            fst.add_transition(q0, effective, output, q0)
            remaining = remaining.difference(charset)
        if remaining:
            fst.add_transition(q0, remaining, (COPY,) if default_copy else ("",), q0)
        return fst

    @staticmethod
    @lru_cache(maxsize=64)
    def replace_chars(charset: CharSet, replacement: str) -> "FST":
        """Replace every character of ``charset`` with ``replacement``."""
        return FST.char_map([(charset, (replacement,))])

    @staticmethod
    @lru_cache(maxsize=64)
    def delete_chars(charset: CharSet) -> "FST":
        return FST.char_map([(charset, ("",))])

    @staticmethod
    @lru_cache(maxsize=64)
    def lowercase() -> "FST":
        return FST.char_map([(CharSet.any_char(), (LOWER,))])

    @staticmethod
    @lru_cache(maxsize=64)
    def uppercase() -> "FST":
        return FST.char_map([(CharSet.any_char(), (UPPER,))])

    @staticmethod
    @lru_cache(maxsize=64)
    def escape_chars(charset: CharSet, escape: str = "\\") -> "FST":
        """Prefix every character of ``charset`` with ``escape``.

        ``escape_chars(CharSet.of("'\\\"\\\\"))`` is PHP's ``addslashes``
        (modulo NUL, which the charset caller includes).
        """
        return FST.char_map([(charset, (escape, COPY))])

    @staticmethod
    @lru_cache(maxsize=512)
    def replace_string(pattern: str, replacement: str) -> "FST":
        """Leftmost, non-overlapping replace-all of a fixed ``pattern``.

        Memoized per ``(pattern, replacement)``: transducers are
        immutable once built, and a stable object identity is what lets
        the image cache (keyed on FST identity + input fingerprint)
        recognize repeated sanitizer applications across call sites and
        pages.

        This is PHP's ``str_replace($pattern, $replacement, $subject)``,
        built as a KMP matcher: state *j* means "the last *j* input
        characters are ``pattern[:j]`` (buffered, unemitted)".  The
        paper's Figure 6 (``str_replace("''", "'", $B)``) is an instance.
        """
        if not pattern:
            raise ValueError("str_replace with empty pattern is identity")
        failure = _kmp_failure(pattern)
        fst = FST()
        length = len(pattern)
        states = [fst.new_state() for _ in range(length)]
        for j in range(length):
            fst.final_output[states[j]] = pattern[:j]
            seen = CharSet.empty()
            # Advancing edge: next pattern character.
            advance_char = pattern[j]
            if j + 1 == length:
                # Full match: emit replacement, restart (non-overlapping).
                fst.add_transition(
                    states[j], CharSet.of(advance_char), (replacement,), states[0]
                )
            else:
                fst.add_transition(
                    states[j], CharSet.of(advance_char), ("",), states[j + 1]
                )
            seen = seen.union(CharSet.of(advance_char))
            # Mismatch edges via the failure chain.  Group all characters
            # that lead to the same fallback state.
            fallback_chars: dict[int, list[str]] = {}
            candidates = set(pattern) | {None}
            for char in sorted(c for c in candidates if c is not None):
                if char == advance_char:
                    continue
                k = failure[j]
                while k > 0 and pattern[k] != char:
                    k = failure[k]
                new_state = k + 1 if pattern[k] == char else 0
                fallback_chars.setdefault(new_state, []).append(char)
                seen = seen.union(CharSet.of(char))
            for new_state, chars in fallback_chars.items():
                for char in chars:
                    # Buffer was pattern[:j]; after consuming char the new
                    # buffer is pattern[:new_state]; emit the difference.
                    emitted = (pattern[:j] + char)[: j + 1 - new_state]
                    fst.add_transition(
                        states[j], CharSet.of(char), (emitted,), states[new_state]
                    )
            # Default edge: any character not in the pattern alphabet.
            rest = seen.complement()
            if rest:
                fst.add_transition(
                    states[j], rest, (pattern[:j], COPY), states[0]
                )
        return fst

    @staticmethod
    def collapse_class(charset: CharSet, replacement: str) -> "FST":
        """Replace each maximal run of ``charset`` chars with ``replacement``.

        This is ``preg_replace('/[class]+/', replacement, $x)`` — exact
        for greedy maximal-run semantics (a run of length *k* produces
        *one* copy of the replacement, not *k*).
        """
        fst = FST()
        outside = fst.new_state()
        inside = fst.new_state()
        other = charset.complement()
        fst.add_transition(outside, charset, (replacement,), inside)
        fst.add_transition(outside, other, (COPY,), outside)
        fst.add_transition(inside, charset, ("",), inside)
        fst.add_transition(inside, other, (COPY,), outside)
        return fst


class FSTExplosion(RuntimeError):
    """Raised when nondeterministic transducer simulation blows up."""


def render_output(output: Output, consumed: str) -> str:
    """Materialize an output item sequence for a concrete consumed char."""
    parts = []
    for item in output:
        if isinstance(item, str):
            parts.append(item)
        elif item is COPY:
            parts.append(consumed)
        elif item is LOWER:
            parts.append(consumed.lower())
        elif item is UPPER:
            parts.append(consumed.upper())
        else:
            raise TypeError(f"unknown output item {item!r}")
    return "".join(parts)


def map_marker_charset(item: OutputItem, charset: CharSet) -> CharSet | str:
    """Image of a consumed-char ``charset`` under one output item.

    Literal items pass through; COPY yields the charset itself; LOWER and
    UPPER yield the (ASCII) case-mapped charset.
    """
    if isinstance(item, str):
        return item
    if item is COPY:
        return charset
    shifted = []
    for lo, hi in charset.intervals:
        if item is LOWER:
            a_lo, a_hi = max(lo, 0x41), min(hi, 0x5A)
            if a_lo <= a_hi:
                shifted.append((a_lo + 32, a_hi + 32))
            for piece in _intervals_minus(lo, hi, 0x41, 0x5A):
                shifted.append(piece)
        elif item is UPPER:
            a_lo, a_hi = max(lo, 0x61), min(hi, 0x7A)
            if a_lo <= a_hi:
                shifted.append((a_lo - 32, a_hi - 32))
            for piece in _intervals_minus(lo, hi, 0x61, 0x7A):
                shifted.append(piece)
        else:
            raise TypeError(f"unknown output item {item!r}")
    return CharSet(shifted)


def _intervals_minus(lo: int, hi: int, cut_lo: int, cut_hi: int) -> Iterable[tuple[int, int]]:
    """``[lo,hi]`` minus ``[cut_lo,cut_hi]`` as intervals."""
    if lo < cut_lo:
        yield (lo, min(hi, cut_lo - 1))
    if hi > cut_hi:
        yield (max(lo, cut_hi + 1), hi)


def _kmp_failure(pattern: str) -> list[int]:
    """KMP failure function: failure[j] = longest proper border of pattern[:j]."""
    failure = [0] * (len(pattern) + 1)
    k = 0
    for j in range(1, len(pattern)):
        while k > 0 and pattern[j] != pattern[k]:
            k = failure[k]
        if pattern[j] == pattern[k]:
            k += 1
        failure[j + 1] = k
    # failure[0] and failure[1] are 0 by construction
    return failure[:-1] if len(failure) > len(pattern) else failure
