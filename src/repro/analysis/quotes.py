"""Quote-parity automata for the policy checks (paper §3.2.1).

The paper expresses checks C1/C2 as Perl regexes over unescaped quotes;
we construct the equivalent automata directly from the underlying state
machine — states are (parity of unescaped quotes seen, pending
backslash) — and differential-test them against a reference Python
implementation.

An *unescaped quote* is a ``'`` not preceded by an unconsumed ``\\``.
The SQL convention of doubling (``''``) needs no special handling for
parity: two quotes flip twice.
"""

from __future__ import annotations

from functools import lru_cache

from repro.lang.charset import CharSet
from repro.lang.fsa import DFA

QUOTE = CharSet.of("'")
BACKSLASH = CharSet.of("\\")
OTHER = QUOTE.union(BACKSLASH).complement()

#: A reserved character standing for an abstracted nonterminal occurrence
#: (the paper's fresh terminal ``t_X``).  Private-use codepoint: cannot
#: occur in program literals that matter.
MARKER = "\ue000"
MARKER_CS = CharSet.of(MARKER)


def count_unescaped_quotes(text: str) -> int:
    """Reference implementation (used by tests and witness validation)."""
    count = 0
    escaped = False
    for char in text:
        if escaped:
            escaped = False
        elif char == "\\":
            escaped = True
        elif char == "'":
            count += 1
    return count


def _parity_machine(accept_odd: bool) -> DFA:
    """DFA over (parity, escaped); accepts by final parity."""
    dfa = DFA()
    states = {(p, e): dfa.new_state() for p in (0, 1) for e in (False, True)}
    dfa.start = states[(0, False)]
    for (p, e), src in states.items():
        if e:
            dfa.add_edge(src, CharSet.any_char(), states[(p, False)])
        else:
            dfa.add_edge(src, BACKSLASH, states[(p, True)])
            dfa.add_edge(src, QUOTE, states[(1 - p, False)])
            dfa.add_edge(src, QUOTE.union(BACKSLASH).complement(), states[(p, False)])
    target = 1 if accept_odd else 0
    dfa.accepts = {states[(target, e)] for e in (False, True)}
    return dfa


@lru_cache(maxsize=1)
def odd_unescaped_quotes() -> DFA:
    """Strings with an odd number of unescaped quotes — never confinable
    (check C1's violation language)."""
    return _parity_machine(accept_odd=True)


@lru_cache(maxsize=1)
def has_unescaped_quote() -> DFA:
    """Strings containing at least one unescaped quote (C2's violation
    language for string-literal-position nonterminals)."""
    dfa = DFA()
    # states: (seen_any, escaped) but once seen we can collapse
    clean = dfa.new_state()
    clean_esc = dfa.new_state()
    seen = dfa.new_state()
    dfa.start = clean
    dfa.accepts = {seen}
    dfa.add_edge(clean, BACKSLASH, clean_esc)
    dfa.add_edge(clean, QUOTE, seen)
    dfa.add_edge(clean, QUOTE.union(BACKSLASH).complement(), clean)
    dfa.add_edge(clean_esc, CharSet.any_char(), clean)
    dfa.add_edge(seen, CharSet.any_char(), seen)
    return dfa


@lru_cache(maxsize=1)
def markers_inside_string_literals() -> DFA:
    """Strings over Σ ∪ {MARKER} where every MARKER occurrence sits inside
    an open single-quoted literal (odd parity, not escape-pending).

    Containment of the hole-grammar in this language is the paper's
    second check: the labeled nonterminal occurs only in string-literal
    position.
    """
    dfa = DFA()
    states = {(p, e): dfa.new_state() for p in (0, 1) for e in (False, True)}
    dfa.start = states[(0, False)]
    dfa.accepts = set(states.values())
    other = QUOTE.union(BACKSLASH).union(MARKER_CS).complement()
    for (p, e), src in states.items():
        if e:
            # the escaped character: consumed literally (marker excluded —
            # an escaped marker would mean X's first char is escaped)
            dfa.add_edge(src, MARKER_CS.complement(), states[(p, False)])
        else:
            dfa.add_edge(src, BACKSLASH, states[(p, True)])
            dfa.add_edge(src, QUOTE, states[(1 - p, False)])
            dfa.add_edge(src, other, states[(p, False)])
            if p == 1:
                dfa.add_edge(src, MARKER_CS, src)
    return dfa


@lru_cache(maxsize=1)
def markers_outside_string_literals() -> DFA:
    """The complement of :func:`markers_inside_string_literals` (C2's
    violation language), built once so its pair tables can be shared."""
    return markers_inside_string_literals().complement()


@lru_cache(maxsize=1)
def numeric_literals() -> DFA:
    """SQL numeric literals (check C3's safe language)."""
    from repro.lang.regex import full_match_language, parse_regex

    return full_match_language(parse_regex(r"-?[0-9]+(\.[0-9]+)?")).determinize()


@lru_cache(maxsize=1)
def non_numeric_literals() -> DFA:
    """The complement of :func:`numeric_literals` (C3's violation
    language), built once so its pair tables can be shared."""
    return numeric_literals().complement()


@lru_cache(maxsize=1)
def non_confinable_substrings() -> DFA:
    """Strings containing a fragment that cannot be syntactically confined
    outside of quotes (check C4): statement separators, comment starts,
    and multi-statement keywords."""
    from repro.lang.fsa import NFA
    from repro.lang.regex import compile_pattern, parse_regex

    patterns = [
        r";",
        r"--",
        r"#",
        r"/\*",
        r"[dD][rR][oO][pP][ \t]",
        r"[dD][eE][lL][eE][tT][eE][ \t]",
        r"[iI][nN][sS][eE][rR][tT][ \t]",
        r"[uU][pP][dD][aA][tT][eE][ \t]",
        r"[uU][nN][iI][oO][nN][ \t]",
        r"[ \t][oO][rR][ \t]",
        r"[ \t][aA][nN][dD][ \t]",
        r"=",
    ]
    # One shared Σ*·(p₁|…|pₙ)·Σ* — per-pattern Σ* wings would make subset
    # construction track the powerset of already-matched patterns.
    core = NFA.nothing()
    for pattern in patterns:
        core = core.union(compile_pattern(parse_regex(pattern)))
    language = NFA.any_string().concat(core).concat(NFA.any_string())
    return language.determinize().minimize()
