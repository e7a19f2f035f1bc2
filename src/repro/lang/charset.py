"""Interval-based character sets.

The whole formal-language substrate (automata, transducers, grammars)
labels transitions and terminals with *character sets* rather than single
characters.  A :class:`CharSet` is an immutable, normalized union of
closed codepoint intervals ``[lo, hi]``.  This keeps automata over large
alphabets (all of Unicode) small: a transition on ``[^']`` is one edge,
not 1,114,110 edges.

CharSets form a Boolean algebra: union, intersection, complement, and
difference are all closed and cheap (linear in the number of intervals).

Representation notes.  CharSets are *hash-consed*: constructing the same
set of codepoints twice yields the very same object, so equality is
(almost always) a pointer comparison and per-pair operation memos stay
valid for the life of the process.  Each set additionally carries a
128-bit mask of its ASCII members, giving O(1) membership and overlap
tests on the alphabet that dominates every analysis (PHP source, SQL,
HTML, shell).  The Boolean algebra is memoized on operand identity; the
memo tables are bounded so adversarial inputs (the fuzzer) cannot grow
them without limit.
"""

from __future__ import annotations

from typing import Iterable, Iterator

#: Highest codepoint we model.  sys.maxunicode is the honest bound; the
#: analyses never depend on the exact value, only on "everything else".
MAX_CODEPOINT = 0x10FFFF

_ASCII_LIMIT = 128

#: Bound on the per-operation memo tables; cleared wholesale on overflow.
_MEMO_CAP = 1 << 17


def _normalize(intervals: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Sort, clamp, drop empties, and merge touching/overlapping intervals."""
    clamped = []
    for lo, hi in intervals:
        lo = max(lo, 0)
        hi = min(hi, MAX_CODEPOINT)
        if lo <= hi:
            clamped.append((lo, hi))
    clamped.sort()
    merged: list[tuple[int, int]] = []
    for lo, hi in clamped:
        if merged and lo <= merged[-1][1] + 1:
            prev_lo, prev_hi = merged[-1]
            merged[-1] = (prev_lo, max(prev_hi, hi))
        else:
            merged.append((lo, hi))
    return tuple(merged)


def _ascii_mask(intervals: tuple[tuple[int, int], ...]) -> int:
    bits = 0
    for lo, hi in intervals:
        if lo >= _ASCII_LIMIT:
            break
        top = min(hi, _ASCII_LIMIT - 1)
        bits |= ((1 << (top - lo + 1)) - 1) << lo
    return bits


class CharSet:
    """An immutable, hash-consed set of codepoints stored as intervals."""

    __slots__ = ("intervals", "ascii_bits", "_ascii_only", "_hash", "_sample")

    #: The hash-consing table: normalized interval tuple -> instance.
    _interned: dict[tuple[tuple[int, int], ...], "CharSet"] = {}

    def __new__(cls, intervals: Iterable[tuple[int, int]] = ()) -> "CharSet":
        normalized = _normalize(intervals)
        interned = cls._interned.get(normalized)
        if interned is not None:
            return interned
        self = super().__new__(cls)
        self.intervals = normalized
        self.ascii_bits = _ascii_mask(normalized)
        self._ascii_only = not normalized or normalized[-1][1] < _ASCII_LIMIT
        self._hash = hash(normalized)
        self._sample = None
        cls._interned[normalized] = self
        return self

    def __reduce__(self):
        # Re-intern on unpickle so identity-based fast paths stay sound
        # in worker processes.
        return (CharSet, (self.intervals,))

    # -- constructors -------------------------------------------------

    @staticmethod
    def empty() -> "CharSet":
        return _EMPTY

    @staticmethod
    def any_char() -> "CharSet":
        """The full alphabet Sigma (one arbitrary character)."""
        return _ANY

    @staticmethod
    def of(chars: str) -> "CharSet":
        """The set containing exactly the characters of ``chars``."""
        cached = _OF_MEMO.get(chars)
        if cached is None:
            cached = CharSet((ord(c), ord(c)) for c in chars)
            if len(_OF_MEMO) >= _MEMO_CAP:
                _OF_MEMO.clear()
            _OF_MEMO[chars] = cached
        return cached

    @staticmethod
    def range(lo: str, hi: str) -> "CharSet":
        return CharSet([(ord(lo), ord(hi))])

    @staticmethod
    def union_of(sets: Iterable["CharSet"]) -> "CharSet":
        intervals: list[tuple[int, int]] = []
        for s in sets:
            intervals.extend(s.intervals)
        return CharSet(intervals)

    # -- queries -------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.intervals)

    def __contains__(self, char: str | int) -> bool:
        cp = char if isinstance(char, int) else ord(char)
        if cp < _ASCII_LIMIT:
            return bool(self.ascii_bits >> cp & 1)
        lo_idx, hi_idx = 0, len(self.intervals)
        while lo_idx < hi_idx:
            mid = (lo_idx + hi_idx) // 2
            lo, hi = self.intervals[mid]
            if cp < lo:
                hi_idx = mid
            elif cp > hi:
                lo_idx = mid + 1
            else:
                return True
        return False

    def size(self) -> int:
        """Number of codepoints in the set."""
        return sum(hi - lo + 1 for lo, hi in self.intervals)

    def is_singleton(self) -> bool:
        return len(self.intervals) == 1 and self.intervals[0][0] == self.intervals[0][1]

    def min_char(self) -> str:
        """An arbitrary (the smallest) member; useful for witness strings."""
        if not self.intervals:
            raise ValueError("empty CharSet has no member")
        return chr(self.intervals[0][0])

    def sample_char(self) -> str:
        """A *readable* member if one exists (prefers printable ASCII)."""
        cached = self._sample
        if cached is not None:
            return cached
        for lo, hi in self.intervals:
            start = max(lo, 0x20)
            if start <= min(hi, 0x7E):
                self._sample = chr(start)
                return self._sample
        self._sample = self.min_char()
        return self._sample

    def chars(self, limit: int = 64) -> Iterator[str]:
        """Iterate members (up to ``limit``), smallest first."""
        count = 0
        for lo, hi in self.intervals:
            for cp in range(lo, hi + 1):
                if count >= limit:
                    return
                yield chr(cp)
                count += 1

    # -- algebra -------------------------------------------------------

    def union(self, other: "CharSet") -> "CharSet":
        if self is other or not other:
            return self
        if not self:
            return other
        key = (self, other)
        result = _UNION_MEMO.get(key)
        if result is None:
            result = CharSet(self.intervals + other.intervals)
            _memo_put(_UNION_MEMO, key, result)
        return result

    def intersect(self, other: "CharSet") -> "CharSet":
        if self is other:
            return self
        if not self or not other:
            return _EMPTY
        key = (self, other)
        result = _INTERSECT_MEMO.get(key)
        if result is None:
            a, b = self.intervals, other.intervals
            parts = []
            i = j = 0
            len_a, len_b = len(a), len(b)
            while i < len_a and j < len_b:
                a_lo, a_hi = a[i]
                b_lo, b_hi = b[j]
                lo = a_lo if a_lo > b_lo else b_lo
                hi = a_hi if a_hi < b_hi else b_hi
                if lo <= hi:
                    parts.append((lo, hi))
                if a_hi < b_hi:
                    i += 1
                else:
                    j += 1
            result = CharSet(parts)
            _memo_put(_INTERSECT_MEMO, key, result)
        return result

    def complement(self) -> "CharSet":
        result = _COMPLEMENT_MEMO.get(self)
        if result is None:
            parts = []
            prev_end = -1
            for lo, hi in self.intervals:
                if lo > prev_end + 1:
                    parts.append((prev_end + 1, lo - 1))
                prev_end = hi
            if prev_end < MAX_CODEPOINT:
                parts.append((prev_end + 1, MAX_CODEPOINT))
            result = CharSet(parts)
            _memo_put(_COMPLEMENT_MEMO, self, result)
            _memo_put(_COMPLEMENT_MEMO, result, self)
        return result

    def difference(self, other: "CharSet") -> "CharSet":
        if self is other or not self:
            return _EMPTY
        if not other:
            return self
        return self.intersect(other.complement())

    def overlaps(self, other: "CharSet") -> bool:
        if self.ascii_bits & other.ascii_bits:
            return True
        if self._ascii_only or other._ascii_only:
            # Any common member would have to be ASCII, and the masks
            # just said there is none.
            return False
        a, b = self.intervals, other.intervals
        i = j = 0
        len_a, len_b = len(a), len(b)
        while i < len_a and j < len_b:
            if a[i][0] > b[j][1]:
                j += 1
            elif b[j][0] > a[i][1]:
                i += 1
            else:
                return True
        return False

    def is_subset_of(self, other: "CharSet") -> bool:
        if self is other or not self:
            return True
        if self.ascii_bits & ~other.ascii_bits:
            return False
        if self._ascii_only:
            return True
        return not self.intersect(other.complement())

    # -- dunder --------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        # Hash-consing makes equal sets identical, but stay safe for
        # exotic instances (e.g. ones created before a table clear).
        return self is other or (
            isinstance(other, CharSet) and self.intervals == other.intervals
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if not self.intervals:
            return "CharSet(∅)"
        if self == _ANY:
            return "CharSet(Σ)"
        parts = []
        for lo, hi in self.intervals[:8]:
            if lo == hi:
                parts.append(_show(lo))
            else:
                parts.append(f"{_show(lo)}-{_show(hi)}")
        if len(self.intervals) > 8:
            parts.append("…")
        return f"CharSet[{','.join(parts)}]"


def _memo_put(memo: dict, key, value) -> None:
    if len(memo) >= _MEMO_CAP:
        memo.clear()
    memo[key] = value


_OF_MEMO: dict[str, CharSet] = {}
_UNION_MEMO: dict[tuple[CharSet, CharSet], CharSet] = {}
_INTERSECT_MEMO: dict[tuple[CharSet, CharSet], CharSet] = {}
_COMPLEMENT_MEMO: dict[CharSet, CharSet] = {}


def _show(cp: int) -> str:
    if 0x21 <= cp <= 0x7E:
        return chr(cp)
    return f"\\u{cp:04x}"


_EMPTY = CharSet()
_ANY = CharSet([(0, MAX_CODEPOINT)])

#: Convenient named classes used throughout the PHP/SQL layers.
DIGITS = CharSet.range("0", "9")
LOWER = CharSet.range("a", "z")
UPPER = CharSet.range("A", "Z")
ALPHA = LOWER.union(UPPER)
ALNUM = ALPHA.union(DIGITS)
WORD = ALNUM.union(CharSet.of("_"))
SPACE = CharSet.of(" \t\r\n\f\v")
