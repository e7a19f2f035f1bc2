"""The enforcement compiler: hotspot scope grammar → deployable guard.

When no patch verifies for a finding (or a deployment wants defense in
depth on top of a patch), the hotspot's **safe-query automaton** is
exported instead: the per-hotspot scope grammar with every maximal
labeled (untrusted) nonterminal's productions replaced by a
check-specific *safe-hole sublanguage*:

* quote-confinement checks (``odd-quotes``, ``literal-break``) — any
  characters except quotes and backslash (data that cannot close a
  string literal);
* numeric / structural checks (``numeric``, ``derivability``,
  ``attack-string``, ``tokenization``) — an optionally-signed integer;
* policy sinks get their policy's safe charset (shell: no
  metacharacters; XSS: no markup-significant characters; path: no
  separators, dots or colons; eval: the empty string only).  The
  context-sensitive XSS checks each get a hole inside the complement of
  their own danger language: an attribute hole has no space, a URL hole
  no colon either (so no script scheme), and a script-block or
  unknown-context hole only the inert ``[a-zA-Z0-9_.,-]``.

The profile is plain JSON (see :data:`~.guard_runtime.GUARD_PROFILE_VERSION`)
checked by the stdlib-only :mod:`repro.remediate.guard_runtime` Earley
recognizer.  Every exported profile is **self-tested** at compile time:
the finding's violating example query must be rejected and a shortest
safe query must be accepted; both the examples and the verdicts are
recorded in the profile, so a deployment can re-run the self-test on
its own copy.
"""

from __future__ import annotations

from repro.analysis.policy import maximal_labeled
from repro.lang.charset import CharSet
from repro.lang.grammar import Grammar, Lit, Nonterminal

from .guard_runtime import GUARD_PROFILE_VERSION, GuardChecker

#: SQL cascade checks whose findings sit inside string literals — the
#: safe hole is "cannot escape the literal"
_QUOTED_CHECKS = frozenset({"odd-quotes", "literal-break"})

_DIGITS = ((ord("0"), ord("9")),)

#: printable ASCII minus the excluded characters, as interval tuples
def _printable_minus(excluded: str) -> tuple[tuple[int, int], ...]:
    banned = {ord(char) for char in excluded}
    intervals: list[tuple[int, int]] = []
    start = None
    for code in range(0x20, 0x7F):
        if code in banned:
            if start is not None:
                intervals.append((start, code - 1))
                start = None
        elif start is None:
            start = code
    if start is not None:
        intervals.append((start, 0x7E))
    return tuple(intervals)


#: the context-sensitive XSS policy's holes per check; any other check
#: of it (script block, unknown context) gets :data:`_INERT`
_XSS_CONTEXT_HOLES = {
    "xss-context-body": _printable_minus("<>&\"'`"),
    "xss-context-attr": _printable_minus("<>&\"'` "),
    "xss-context-url": _printable_minus("<>&\"'` :"),
}

#: ``[a-zA-Z0-9_.,-]``, the repertoire the strictest XSS check leaves inert
_INERT = tuple(
    (ord(lo), ord(hi))
    for lo, hi in ((",", "."), ("0", "9"), ("A", "Z"), ("_", "_"), ("a", "z"))
)


def safe_hole_intervals(
    check: str, policy: str
) -> tuple[tuple[int, int], ...] | None:
    """Character intervals of the safe-hole language, or None for the
    numeric (signed-integer) shape, or ``()`` for ε-only (eval)."""
    policy = policy or "sql"
    if policy == "sql":
        if check in _QUOTED_CHECKS:
            return _printable_minus("'\"\\")
        return None   # numeric shape
    if policy == "xss":
        return _printable_minus("<>&\"'`")
    if policy == "xss-context":
        return _XSS_CONTEXT_HOLES.get(check, _INERT)
    if policy == "shell":
        return _printable_minus("'\"`\\|&;$<>(){}!*?~#\n")
    if policy == "path":
        return _printable_minus("/\\.:\0")
    if policy == "eval":
        return ()
    return _printable_minus("'\"\\")


def _symbol_json(symbol, names: dict[int, str]):
    if isinstance(symbol, Lit):
        return ["lit", symbol.text]
    if isinstance(symbol, CharSet):
        return ["set", [[lo, hi] for lo, hi in symbol.intervals]]
    return ["nt", names[id(symbol)]]


def _hole_productions(
    intervals: tuple[tuple[int, int], ...] | None, hole: str
) -> list[list]:
    """Safe-hole rules in profile JSON form (star over a charset, the
    signed-integer shape, or ε-only)."""
    if intervals is None:
        digits = ["set", [[lo, hi] for lo, hi in _DIGITS]]
        body = f"{hole}#digits"
        return [
            [["nt", body]],
            [["lit", "-"], ["nt", body]],
        ], [[digits], [["nt", body], digits]]
    if not intervals:
        return [[]], None   # ε only
    charset = ["set", [[lo, hi] for lo, hi in intervals]]
    return [[], [["nt", hole], charset]], None


def _witness_example(profile: dict, witness: str) -> str:
    """A shortest query with ``witness`` in every untrusted hole — the
    reject example when the finding carries no full example query.

    Built by re-deriving the profile's shortest string over a variant
    grammar whose holes produce exactly the witness: the result is a
    minimal hotspot query shaped like the attack, which the real
    (confined) profile must reject.
    """
    if not witness or not profile["holes"]:
        return ""
    productions = dict(profile["productions"])
    for hole in profile["holes"]:
        productions[hole] = [[["lit", witness]]]
    variant = {**profile, "productions": productions}
    return (
        _shortest_via(
            GuardChecker(variant), set(profile["holes"]), profile["start"]
        )
        or ""
    )


def _shortest_via(checker: GuardChecker, marked: set[str], start: str) -> str | None:
    """A shortest string of ``checker``'s grammar whose derivation passes
    through a ``marked`` nonterminal (None when no such string exists) —
    the plain shortest string may skip the holes entirely (an optional
    loop body), which would make the reject example vacuous."""
    rules = checker.rules
    best: dict[str, str] = {}
    via: dict[str, str] = {}
    changed = True
    while changed:
        changed = False
        for name, alternatives in rules.items():
            for rhs in alternatives:
                pieces: list[str | None] = []
                for symbol in rhs:
                    if symbol[0] == "c":
                        pieces.append(symbol[1])
                    elif symbol[0] == "set":
                        pieces.append(chr(symbol[1][0][0]))
                    else:
                        pieces.append(best.get(symbol[1]))
                if all(piece is not None for piece in pieces):
                    candidate = "".join(pieces)
                    current = best.get(name)
                    if current is None or len(candidate) < len(current):
                        best[name] = candidate
                        changed = True
                # the via-string routes exactly one position through a
                # marked (or transitively via-capable) nonterminal
                for carrier, symbol in enumerate(rhs):
                    if symbol[0] != "nt":
                        continue
                    target = symbol[1]
                    carried = (
                        best.get(target)
                        if target in marked
                        else via.get(target)
                    )
                    if carried is None:
                        continue
                    parts = list(pieces)
                    parts[carrier] = carried
                    if any(piece is None for piece in parts):
                        continue
                    candidate = "".join(parts)
                    current = via.get(name)
                    if current is None or len(candidate) < len(current):
                        via[name] = candidate
                        changed = True
    if start in marked:
        return best.get(start)
    return via.get(start)


def compile_guard(
    grammar: Grammar,
    root: Nonterminal,
    finding,
    site: dict | None = None,
) -> dict:
    """The guard profile for one hotspot scope and one finding.

    ``grammar`` is the page grammar; ``root`` the hotspot's query
    nonterminal.  The profile's language is the scope grammar with each
    maximal labeled nonterminal confined to the finding's safe-hole
    sublanguage; the finding's ``example_query`` (when present) is the
    recorded reject example.
    """
    scope = grammar.subgrammar(root).trim(root)
    order = scope.canonical_order(root)
    names: dict[int, str] = {}
    for index, nt in enumerate(order):
        names[id(nt)] = f"{nt.name}@{index}"
    holes = [nt for nt in maximal_labeled(scope, root) if id(nt) in names]
    hole_ids = {id(nt) for nt in holes}
    # nonterminals only reachable through a hole's original productions
    # are dropped with them: rebuild reachability over the kept rules
    intervals = safe_hole_intervals(finding.check, finding.policy)
    productions: dict[str, list] = {}
    for nt in order:
        name = names[id(nt)]
        if id(nt) in hole_ids:
            rules, extra = _hole_productions(intervals, name)
            productions[name] = rules
            if extra is not None:
                productions[f"{name}#digits"] = extra
            continue
        rules = []
        for rhs in scope.productions.get(nt, ()):
            if any(
                isinstance(sym, Nonterminal) and id(sym) not in names
                for sym in rhs
            ):
                continue
            rules.append([_symbol_json(sym, names) for sym in rhs])
        productions[name] = rules
    profile: dict = {
        "version": GUARD_PROFILE_VERSION,
        "generator": "sqlciv",
        "site": dict(site or {}),
        "check": finding.check,
        "policy": finding.policy or "sql",
        "start": names[id(root)],
        "holes": [names[id(nt)] for nt in holes],
        "productions": productions,
    }
    checker = GuardChecker(profile)
    accept_example = checker.shortest_string()
    reject_example = finding.example_query or _witness_example(
        profile, finding.witness
    )
    self_test = {
        "example_accepted": (
            checker.check(accept_example)
            if accept_example is not None
            else None
        ),
        "witness_rejected": (
            not checker.check(reject_example) if reject_example else None
        ),
    }
    profile["examples"] = {
        "accept": accept_example,
        "reject": reject_example or None,
    }
    profile["self_test"] = self_test
    return profile
