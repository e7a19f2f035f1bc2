"""Bridge between character-level query grammars and token-level SQL.

The string-taint analysis produces grammars over *characters* (literal
chunks and charsets); the derivability check (§3.2.2) runs over *SQL
tokens*.  This module converts conservatively: whenever the conversion
cannot prove that a character-level boundary is also a token boundary,
it raises :class:`TokenizationFailure`, and the policy checker treats
the nonterminal as unsafe.  Failing closed keeps Theorem 3.4 intact.

Three mechanisms:

* *atomic abstraction* — if a nonterminal's entire language fits inside
  one token class (all numbers / all quoted strings / all identifiers),
  the nonterminal maps to that single token;
* *production expansion* — literal chunks are lexed with the real SQL
  lexer and charset terminals must be digit sets (→ ``NUMBER``);
* *boundary analysis* — adjacent items must not be able to merge into
  one token (``1`` next to ``2`` would re-lex as one NUMBER; ``-`` next
  to ``-`` would become a comment).  FIRST/LAST character sets are
  computed per nonterminal to decide this.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lang.charset import CharSet, DIGITS, WORD
from repro.lang.earley import TokenGrammar
from repro.lang.fsa import DFA, NFA
from repro.lang.grammar import Grammar, Lit, Nonterminal, Symbol
from repro.lang.intersect import intersection_is_empty
from repro.lang.regex import full_match_language, parse_regex
from .lexer import KEYWORDS, SqlLexError, tokenize


class TokenizationFailure(Exception):
    """The char-level grammar cannot be conservatively tokenized."""


# ---------------------------------------------------------------------------
# Token-class languages (as complement DFAs, for subset checks)
# ---------------------------------------------------------------------------


def _complement_dfa(pattern: str) -> DFA:
    return full_match_language(parse_regex(pattern)).determinize().complement()


_NUMBER_COMPLEMENT = None
_SIGNED_NUMBER_COMPLEMENT = None
_STRING_COMPLEMENT = None
_IDENT_COMPLEMENT = None
_KEYWORDS_DFA = None


def _ensure_dfas() -> None:
    global _NUMBER_COMPLEMENT, _SIGNED_NUMBER_COMPLEMENT, _STRING_COMPLEMENT
    global _IDENT_COMPLEMENT, _KEYWORDS_DFA
    if _NUMBER_COMPLEMENT is None:
        _NUMBER_COMPLEMENT = _complement_dfa(r"[0-9]+(\.[0-9]*)?")
        _SIGNED_NUMBER_COMPLEMENT = _complement_dfa(r"-?[0-9]+(\.[0-9]*)?")
        _STRING_COMPLEMENT = _complement_dfa(r"'([^'\\]|\\.|'')*'")
        _IDENT_COMPLEMENT = _complement_dfa(r"[A-Za-z_][A-Za-z0-9_]*")
        spellings = (
            variant
            for word in KEYWORDS
            for variant in (word, word.lower(), word.capitalize())
        )
        _KEYWORDS_DFA = NFA.from_strings(spellings).determinize()


def _atomic_productions(
    grammar: Grammar, nt: Nonterminal
) -> list[tuple[str, ...]] | None:
    """Token productions covering L(nt) when its whole language fits one
    token class, else None.

    Memoized per scope: the productive set and every answer are stamped
    on the grammar, so every ``grammar_to_tokens`` call on one scope
    reads the same answers, and the pair tables behind them are solved
    once per (scope, class automaton)."""
    memo = grammar._memo_get(("sql_token_classes",))
    if memo is None:
        memo = (grammar.productive(), {})
        grammar._memo_set(("sql_token_classes",), memo)
    productive, classes = memo
    if nt not in classes:
        classes[nt] = _classify(grammar, nt, productive)
    return classes[nt]


def _classify(
    grammar: Grammar, nt: Nonterminal, productive: set[Nonterminal]
) -> list[tuple[str, ...]] | None:
    """L(nt) ⊆ class ⇔ L(nt) ∩ complement = ∅, for each class in turn;
    the first matching class wins, so the order is part of the output."""
    if nt not in productive:
        return None
    if intersection_is_empty(grammar, nt, _NUMBER_COMPLEMENT):
        return [("NUMBER",)]
    if intersection_is_empty(grammar, nt, _SIGNED_NUMBER_COMPLEMENT):
        return [("NUMBER",), ("-", "NUMBER")]
    if intersection_is_empty(grammar, nt, _STRING_COMPLEMENT):
        return [("STRING",)]
    if intersection_is_empty(grammar, nt, _IDENT_COMPLEMENT):
        if intersection_is_empty(grammar, nt, _KEYWORDS_DFA):
            return [("IDENT",)]
    return None


# ---------------------------------------------------------------------------
# FIRST/LAST character analysis
# ---------------------------------------------------------------------------


@dataclass
class _Edges:
    first: CharSet
    last: CharSet
    nullable: bool


def _boundary_info(grammar: Grammar) -> dict[Nonterminal, _Edges]:
    """FIRST/LAST/nullable per nonterminal, memoized on the grammar."""
    cached = grammar._memo_get(("sql_edges",))
    if cached is not None:
        return cached
    info = {
        nt: _Edges(CharSet.empty(), CharSet.empty(), False)
        for nt in grammar.productions
    }

    def sym_first(symbol: Symbol) -> tuple[CharSet, bool]:
        if isinstance(symbol, Lit):
            return (CharSet.of(symbol.text[0]), False) if symbol.text else (
                CharSet.empty(),
                True,
            )
        if isinstance(symbol, CharSet):
            return symbol, False
        edge = info[symbol]
        return edge.first, edge.nullable

    def sym_last(symbol: Symbol) -> tuple[CharSet, bool]:
        if isinstance(symbol, Lit):
            return (CharSet.of(symbol.text[-1]), False) if symbol.text else (
                CharSet.empty(),
                True,
            )
        if isinstance(symbol, CharSet):
            return symbol, False
        edge = info[symbol]
        return edge.last, edge.nullable

    changed = True
    while changed:
        changed = False
        for nt, rules in grammar.productions.items():
            edge = info[nt]
            first, last, nullable = edge.first, edge.last, edge.nullable
            for rhs in rules:
                all_nullable = True
                for symbol in rhs:
                    sym_f, sym_nullable = sym_first(symbol)
                    first = first.union(sym_f)
                    if not sym_nullable:
                        all_nullable = False
                        break
                all_nullable_rev = True
                for symbol in reversed(rhs):
                    sym_l, sym_nullable = sym_last(symbol)
                    last = last.union(sym_l)
                    if not sym_nullable:
                        all_nullable_rev = False
                        break
                if all_nullable and all_nullable_rev:
                    nullable = True
            if (
                first != edge.first
                or last != edge.last
                or nullable != edge.nullable
            ):
                info[nt] = _Edges(first, last, nullable)
                changed = True
    grammar._memo_set(("sql_edges",), info)
    return info


_QUOTES = CharSet.of("'\"`")
_DASH = CharSet.of("-")
_EQ_PRE = CharSet.of("<>!=")
_EQ = CharSet.of("=")
_LT = CharSet.of("<")
_GT = CharSet.of(">")
_DOT = CharSet.of(".")


def tokens_can_merge(last: CharSet, first: CharSet) -> bool:
    """Could a character from ``last`` and one from ``first`` re-lex as a
    single token (or change token kinds) when adjacent?  Conservative."""
    if last.overlaps(WORD) and first.overlaps(WORD):
        return True
    if last.overlaps(_DASH) and first.overlaps(_DASH):
        return True
    if last.overlaps(_EQ_PRE) and first.overlaps(_EQ):
        return True
    if last.overlaps(_LT) and first.overlaps(_GT):
        return True
    if last.overlaps(_QUOTES) and first.overlaps(_QUOTES):
        return True
    if last.overlaps(_DOT) and first.overlaps(DIGITS.union(_DOT)):
        return True
    if last.overlaps(DIGITS) and first.overlaps(_DOT):
        return True
    if last.overlaps(CharSet.of("\\")):
        return True  # a trailing backslash can swallow the next character
    return False


# ---------------------------------------------------------------------------
# Conversion
# ---------------------------------------------------------------------------


def grammar_to_tokens(
    grammar: Grammar,
    root: Nonterminal,
    special: dict[Nonterminal, str] | None = None,
) -> TokenGrammar:
    """Convert the char-level ``grammar`` (from ``root``) to token level.

    ``special`` marks hole nonterminals: they become production-less
    token-grammar nonterminals with the given names (used to locate an
    untrusted subgrammar inside its query context).  Raises
    :class:`TokenizationFailure` when conversion would be unsound.
    """
    _ensure_dfas()
    special = special or {}
    info = _boundary_info(grammar)
    result = TokenGrammar(_nt_name(root))

    def atomic_token(nt: Nonterminal) -> list[tuple[str, ...]] | None:
        """Token-sequence productions covering L(nt), or None."""
        if nt in special:
            return None
        return _atomic_productions(grammar, nt)

    def convert_symbol(symbol: Symbol) -> list[str]:
        if isinstance(symbol, Lit):
            try:
                lexed = tokenize(symbol.text)
            except SqlLexError as exc:
                raise TokenizationFailure(
                    f"literal {symbol.text!r} does not lex: {exc}"
                ) from exc
            if any(token.symbol == "COMMENT" for token in lexed):
                raise TokenizationFailure(
                    f"literal {symbol.text!r} contains a comment"
                )
            return [token.symbol for token in lexed]
        if isinstance(symbol, CharSet):
            if symbol and symbol.is_subset_of(DIGITS):
                return ["NUMBER"]
            if symbol.is_singleton():
                char = symbol.min_char()
                try:
                    lexed = tokenize(char)
                except SqlLexError as exc:
                    raise TokenizationFailure(
                        f"charset char {char!r} does not lex: {exc}"
                    ) from exc
                if len(lexed) == 1 and lexed[0].symbol != "COMMENT":
                    return [lexed[0].symbol]
            raise TokenizationFailure(f"charset {symbol!r} is not a clean token")
        if symbol in special:
            return [special[symbol]]
        if symbol in reaches_hole:
            return [_nt_name(symbol)]
        productions = atomic_token(symbol)
        if productions is not None:
            if len(productions) == 1:
                return list(productions[0])
            name = _nt_name(symbol)
            for rhs in productions:
                result.add(name, rhs)
            return [name]
        return [_nt_name(symbol)]

    def check_boundaries(rhs: tuple[Symbol, ...]) -> None:
        """No adjacent (possibly through nullables) items may merge."""
        edges: list[tuple[CharSet, CharSet, bool]] = []
        for symbol in rhs:
            if isinstance(symbol, Lit):
                if not symbol.text:
                    continue
                edges.append(
                    (CharSet.of(symbol.text[0]), CharSet.of(symbol.text[-1]), False)
                )
            elif isinstance(symbol, CharSet):
                edges.append((symbol, symbol, False))
            else:
                edge = info.get(symbol)
                if edge is None:
                    raise TokenizationFailure(f"unknown nonterminal {symbol!r}")
                edges.append((edge.first, edge.last, edge.nullable))
        for i in range(len(edges)):
            _, last, _ = edges[i]
            for j in range(i + 1, len(edges)):
                first, _, nullable = edges[j]
                if tokens_can_merge(last, first):
                    raise TokenizationFailure(
                        f"items {i} and {j} may merge across a token boundary"
                    )
                if not nullable:
                    break

    # Nonterminals that can reach a special hole must keep their structure
    # (the finite-enumeration shortcut would inline the hole away).
    reaches_hole: set[Nonterminal] = set(special)
    if special:
        incoming: dict[Nonterminal, set[Nonterminal]] = {}
        for lhs, rules in grammar.productions.items():
            for rhs in rules:
                for symbol in rhs:
                    if isinstance(symbol, Nonterminal):
                        incoming.setdefault(symbol, set()).add(lhs)
        frontier = list(special)
        while frontier:
            nt = frontier.pop()
            for parent in incoming.get(nt, ()):
                if parent not in reaches_hole:
                    reaches_hole.add(parent)
                    frontier.append(parent)

    # Walk only the nonterminals that must be *expanded*: descent stops at
    # special holes and atomically-abstracted nonterminals (their internal
    # structure is already summarized by a single token).
    pending = [root]
    visited: set[Nonterminal] = set()
    while pending:
        nt = pending.pop()
        if nt in visited:
            continue
        visited.add(nt)
        if nt in special:
            result.productions.setdefault(special[nt], [])
            continue
        if nt not in reaches_hole and atomic_token(nt) is not None:
            continue
        name = _nt_name(nt)
        # finite whitelist languages (ASC|DESC, column-name sets, …):
        # enumerate and lex each string exactly
        finite = None
        if nt not in reaches_hole:
            finite = grammar.enumerate_finite(nt, max_strings=32)
        if finite is not None and finite:
            converted = []
            for text in finite:
                try:
                    lexed = tokenize(text)
                except SqlLexError as exc:
                    raise TokenizationFailure(
                        f"finite value {text!r} does not lex: {exc}"
                    ) from exc
                if any(token.symbol == "COMMENT" for token in lexed):
                    raise TokenizationFailure(
                        f"finite value {text!r} contains a comment"
                    )
                converted.append([token.symbol for token in lexed])
            for symbols in converted:
                result.add(name, symbols)
            continue
        rules = grammar.productions.get(nt, ())
        if not rules:
            raise TokenizationFailure(f"{nt!r} has no productions and no token")
        for rhs in rules:
            check_boundaries(rhs)
            tokens: list[str] = []
            for symbol in rhs:
                tokens.extend(convert_symbol(symbol))
            result.add(name, tokens)
            for symbol in rhs:
                if isinstance(symbol, Nonterminal):
                    pending.append(symbol)
    # make sure the root exists even if it was atomically abstracted
    root_atomic = atomic_token(root)
    if root_atomic is not None:
        result.start = _nt_name(root)
        for rhs in root_atomic:
            result.add(result.start, rhs)
    if root in special:
        result.start = special[root]
    return result


def _nt_name(nt: Nonterminal) -> str:
    return f"N{nt.uid}"
