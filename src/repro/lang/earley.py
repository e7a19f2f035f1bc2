"""Earley parsing of sentential forms and grammar derivability.

The fallback policy check (paper §3.2.2) asks: is every string derivable
from a labeled nonterminal also derivable from *some one nonterminal* of
the reference SQL grammar, in the context where it appears?  Context-free
language inclusion is undecidable, so the paper approximates it with
*grammar derivability* (Definition 3.2, after Thiemann): a homomorphism
``F`` from the generated grammar's symbols to the reference grammar's
symbols such that every production image is derivable.

Two pieces live here:

* :class:`TokenGrammar` — a plain token-level grammar (symbols are
  strings; a symbol is a nonterminal iff it has productions).
* :func:`parse_sentential_form` — an Earley recognizer whose *input* may
  contain reference-grammar nonterminals; an input nonterminal scans
  like a token that matches itself.  This is exactly what "parsing a
  sentential form" means.
* :func:`derivability` — the Definition 3.2 fixed point: shrink
  candidate sets ``C(X) ⊆ V₂ ∪ Σ₂`` until stable, then verify one
  concrete mapping ``F`` (so a "derivable" answer is trustworthy — the
  soundness direction the paper's Theorem 3.4 needs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

if TYPE_CHECKING:  # symbol-level grammars, lowered by char_token_grammar
    from .charset import CharSet
    from .grammar import Grammar, Nonterminal


class TokenGrammar:
    """A CFG over string symbols.  Nonterminal ⇔ has a productions entry."""

    def __init__(self, start: str) -> None:
        self.start = start
        self.productions: dict[str, list[tuple[str, ...]]] = {}
        #: compiled integer-indexed tables (see :class:`_Compiled`),
        #: rebuilt lazily whenever the size stamp changes.
        self._compiled: "_Compiled | None" = None

    def add(self, lhs: str, rhs: Sequence[str]) -> None:
        rules = self.productions.setdefault(lhs, [])
        rhs_tuple = tuple(rhs)
        if rhs_tuple not in rules:
            rules.append(rhs_tuple)

    def is_nonterminal(self, symbol: str) -> bool:
        return symbol in self.productions

    def signature(self) -> tuple:
        """Structural identity: symbols, production order, start symbol.

        Two grammars with equal signatures behave identically under
        every algorithm in this module (the recognizer, the candidate
        fixpoint, and the verified-mapping search all walk productions
        in insertion order), so signatures key the derivability memo.
        """
        stamp = _grammar_stamp(self)
        cached = getattr(self, "_signature", None)
        if cached is not None and cached[0] == stamp:
            return cached[1]
        sig = (
            self.start,
            tuple(
                (lhs, tuple(rules)) for lhs, rules in self.productions.items()
            ),
        )
        self._signature = (stamp, sig)
        return sig

    def nonterminals(self) -> list[str]:
        return list(self.productions)

    def terminals(self) -> set[str]:
        found = set()
        for rules in self.productions.values():
            for rhs in rules:
                for symbol in rhs:
                    if symbol not in self.productions:
                        found.add(symbol)
        return found

    def nullable(self) -> set[str]:
        """Nonterminals that derive the empty sequence."""
        nullable: set[str] = set()
        changed = True
        while changed:
            changed = False
            for lhs, rules in self.productions.items():
                if lhs in nullable:
                    continue
                for rhs in rules:
                    if all(s in nullable for s in rhs):
                        nullable.add(lhs)
                        changed = True
                        break
        return nullable


def enumerate_strings(
    grammar: TokenGrammar,
    start: str,
    max_strings: int = 64,
    max_len: int = 64,
) -> list[tuple[str, ...]] | None:
    """All token strings of ``L(start)`` if finite and small, else None.

    Production-less nonterminals (holes) are treated as opaque tokens and
    appear in the output — so the result is really the set of *sentential
    forms* over terminals and holes.
    """
    expandable = {nt for nt, rules in grammar.productions.items() if rules}
    if start in expandable and _reaches_cycle(grammar, expandable, start):
        return None
    results: set[tuple[str, ...]] = set()
    forms: list[tuple[str, ...]] = [(start,)]
    steps = 0
    while forms:
        steps += 1
        if steps > 20_000:
            return None
        form = forms.pop()
        idx = next((i for i, s in enumerate(form) if s in expandable), None)
        if idx is None:
            if len(form) > max_len:
                return None
            results.add(form)
            if len(results) > max_strings:
                return None
            continue
        for rhs in grammar.productions[form[idx]]:
            forms.append(form[:idx] + tuple(rhs) + form[idx + 1 :])
    return sorted(results)


def _reaches_cycle(grammar: TokenGrammar, expandable: set[str], start: str) -> bool:
    """Is a cycle among ``expandable`` nonterminals reachable from
    ``start``?  An iterative DFS (a self-calling closure would form a
    reference cycle; DESIGN.md "Collector pauses")."""

    def successors(nt: str):
        return iter([
            symbol
            for rhs in grammar.productions.get(nt, ())
            for symbol in rhs
            if symbol in expandable
        ])

    visiting = {start}
    visited: set[str] = set()
    stack = [(start, successors(start))]
    while stack:
        nt, pending = stack[-1]
        for symbol in pending:
            if symbol in visiting:
                return True
            if symbol not in visited:
                visiting.add(symbol)
                stack.append((symbol, successors(symbol)))
                break
        else:
            stack.pop()
            visiting.discard(nt)
            visited.add(nt)
    return False


class _Compiled:
    """Integer-indexed tables for a :class:`TokenGrammar` snapshot.

    Symbols are renamed to dense ints, productions flattened into parallel
    ``rule_lhs``/``rule_rhs`` arrays, nullable nonterminals precomputed
    once (the old recognizer recomputed the nullable fixpoint on *every*
    parse).  The stamp (|V|, |R|) detects grammar growth — TokenGrammar
    only ever gains symbols/rules, so size equality implies freshness.
    """

    __slots__ = (
        "stamp", "ids", "rule_lhs", "rule_rhs", "rules_by_lhs", "nullable"
    )

    def __init__(self, grammar: TokenGrammar) -> None:
        productions = grammar.productions
        self.stamp = _grammar_stamp(grammar)
        ids: dict[str, int] = {}

        def intern(symbol: str) -> int:
            sid = ids.get(symbol)
            if sid is None:
                sid = len(ids)
                ids[symbol] = sid
            return sid

        for lhs in productions:
            intern(lhs)
        rule_lhs: list[int] = []
        rule_rhs: list[tuple[int, ...]] = []
        rules_by_lhs: dict[int, list[int]] = {}
        for lhs, rules in productions.items():
            lhs_id = ids[lhs]
            indices = rules_by_lhs.setdefault(lhs_id, [])
            for rhs in rules:
                indices.append(len(rule_lhs))
                rule_lhs.append(lhs_id)
                rule_rhs.append(tuple(intern(s) for s in rhs))
        self.ids = ids
        self.rule_lhs = rule_lhs
        self.rule_rhs = rule_rhs
        self.rules_by_lhs = rules_by_lhs
        # nullable fixpoint over rule ids
        nullable: set[int] = set()
        changed = True
        while changed:
            changed = False
            for ridx, rhs in enumerate(rule_rhs):
                lhs_id = rule_lhs[ridx]
                if lhs_id not in nullable and all(s in nullable for s in rhs):
                    nullable.add(lhs_id)
                    changed = True
        self.nullable = nullable


def _grammar_stamp(grammar: TokenGrammar) -> tuple[int, int]:
    return (
        len(grammar.productions),
        sum(len(rules) for rules in grammar.productions.values()),
    )


def _compile(grammar: TokenGrammar) -> _Compiled:
    compiled = grammar._compiled
    if compiled is None or compiled.stamp != _grammar_stamp(grammar):
        compiled = _Compiled(grammar)
        grammar._compiled = compiled
    return compiled


def parse_sentential_form(
    grammar: TokenGrammar,
    start: str,
    form: Sequence[str],
    match_classes: Mapping[str, frozenset[str]] | None = None,
) -> bool:
    """Earley recognition of ``form`` from ``start``.

    ``form`` may mix terminals and nonterminals of ``grammar``; an input
    nonterminal matches a predicted occurrence of itself (so a form is
    accepted iff ``start ⇒* form``).  ``match_classes`` optionally lets
    an input symbol match a *set* of grammar symbols — used by the
    derivability fixed point, where a generated-grammar variable ranges
    over its current candidate set.

    The recognizer works over the compiled integer tables: items are
    ``(rule, dot, origin)`` int triples, completion uses per-position
    waiting lists instead of chart rescans (same-position completions
    are exactly the nullable case, which the Aycock–Horspool prediction
    fix already covers), and the per-position match sets double as a
    sound pruning pass — if some input position matches no grammar
    symbol at all, no parse can cross it and we reject immediately.
    """
    comp = _compile(grammar)
    ids = comp.ids
    rule_lhs = comp.rule_lhs
    rule_rhs = list(comp.rule_rhs)
    rules_by_lhs = comp.rules_by_lhs
    nullable = comp.nullable
    n = len(form)

    # the augmented start symbol/rule live outside the compiled tables
    start_id = ids.get(start, -1)  # -1: ad-hoc symbol, matchable by scan only
    aug_rule = len(rule_rhs)
    rule_rhs.append((start_id,))

    # per-position sets of symbol ids the input token can scan as
    match_ids: list[set[int]] = []
    for actual in form:
        matched: set[int] = set()
        aid = ids.get(actual)
        if aid is not None:
            matched.add(aid)
        if start_id == -1 and actual == start:
            matched.add(-1)
        if match_classes:
            klass = match_classes.get(actual)
            if klass is not None:
                for expected in klass:
                    eid = ids.get(expected)
                    if eid is not None:
                        matched.add(eid)
                    if start_id == -1 and expected == start:
                        matched.add(-1)
        if not matched:
            # chart pruning: nothing can ever scan this token, and every
            # item in chart[p+1..n] descends from a scan at p
            return False
        match_ids.append(matched)

    chart: list[set[tuple[int, int, int]]] = [set() for _ in range(n + 1)]
    waiting: list[dict[int, list[tuple[int, int, int]]]] = [
        {} for _ in range(n + 1)
    ]
    chart[0].add((aug_rule, 0, 0))

    for position in range(n + 1):
        items = chart[position]
        agenda = list(items)
        wait_here = waiting[position]
        scan_ok = match_ids[position] if position < n else None
        next_chart = chart[position + 1] if position < n else None
        while agenda:
            item = agenda.pop()
            rule, dot, origin = item
            rhs = rule_rhs[rule]
            if dot == len(rhs):
                # complete: advance everyone waiting on lhs at origin.
                # waiting[origin] is final for origin < position; for
                # origin == position (lhs nullable) late waiters are
                # advanced by the prediction fix below instead.
                lhs = rule_lhs[rule] if rule != aug_rule else None
                if lhs is not None:
                    for parent in waiting[origin].get(lhs, ()):
                        advanced = (parent[0], parent[1] + 1, parent[2])
                        if advanced not in items:
                            items.add(advanced)
                            agenda.append(advanced)
                continue
            symbol = rhs[dot]
            wait_here.setdefault(symbol, []).append(item)
            indices = rules_by_lhs.get(symbol)
            if indices is not None:
                # predict
                for ridx in indices:
                    predicted = (ridx, 0, position)
                    if predicted not in items:
                        items.add(predicted)
                        agenda.append(predicted)
                # Aycock–Horspool nullable fix: a nullable prediction can
                # complete instantly, so advance over it right away.
                if symbol in nullable:
                    advanced = (rule, dot + 1, origin)
                    if advanced not in items:
                        items.add(advanced)
                        agenda.append(advanced)
            # scan (terminals AND nonterminals may be scanned from the form)
            if scan_ok is not None and symbol in scan_ok:
                next_chart.add((rule, dot + 1, origin))
    return (aug_rule, 1, 0) in chart[n]


@dataclass
class Derivability:
    """Result of the Definition 3.2 check."""

    derivable: bool
    mapping: dict[str, str] | None = None
    reason: str = ""


def candidate_fixpoint(
    generated: TokenGrammar,
    reference: TokenGrammar,
    allowed: Mapping[str, Iterable[str]] | None = None,
) -> dict[str, set[str]]:
    """The shrinking candidate sets ``C(X) ⊆ V₂ ∪ Σ₂`` of Definition 3.2.

    ``allowed`` pre-restricts chosen nonterminals (e.g. pin the root to
    the reference start symbol, or a context hole to one candidate).
    The result over-approximates the valid mappings: every valid ``F``
    satisfies ``F(X) ∈ C(X)``; membership alone does not guarantee a
    globally consistent ``F`` (use :func:`derivability` to verify one).
    """
    ref_terminals = reference.terminals()
    all_candidates = set(reference.nonterminals()) | ref_terminals
    candidates: dict[str, set[str]] = {
        nt: set(all_candidates) for nt in generated.productions
    }
    if allowed:
        for nt, allowed_set in allowed.items():
            candidates[nt] = set(allowed_set) & all_candidates

    # occurrences of "holes" (production-less nonterminals) for the
    # context-shrinking pass below
    holes = [nt for nt, rules in generated.productions.items() if not rules]
    occurrences: dict[str, list[tuple[str, tuple[str, ...]]]] = {h: [] for h in holes}
    for lhs, rules in generated.productions.items():
        for rhs in rules:
            for symbol in rhs:
                if symbol in occurrences:
                    occurrences[symbol].append((lhs, rhs))

    # Parse memo: across fixpoint iterations most (candidate, rhs)
    # queries recur with unchanged candidate sets for the variables in
    # rhs; key on exactly that slice of the match classes so repeats
    # are O(1) instead of a fresh Earley run.
    parse_memo: dict[tuple, bool] = {}

    def memo_parse(cand: str, rhs: tuple[str, ...], classes) -> bool:
        relevant = tuple(
            sorted((s, classes[s]) for s in set(rhs) if s in classes)
        )
        key = (cand, rhs, relevant)
        cached = parse_memo.get(key)
        if cached is None:
            cached = parse_sentential_form(reference, cand, rhs, classes)
            parse_memo[key] = cached
        return cached

    changed = True
    while changed:
        changed = False
        match_classes = {
            nt: frozenset(cands) for nt, cands in candidates.items()
        }
        for nt in generated.productions:
            if not generated.productions[nt]:
                continue  # handled by the hole pass
            survivors = set()
            for cand in candidates[nt]:
                ok = True
                for rhs in generated.productions[nt]:
                    if cand in ref_terminals:
                        if not (
                            len(rhs) == 1
                            and (
                                rhs[0] == cand
                                or (
                                    generated.is_nonterminal(rhs[0])
                                    and cand in candidates[rhs[0]]
                                )
                            )
                        ):
                            ok = False
                            break
                    elif not memo_parse(cand, rhs, match_classes):
                        ok = False
                        break
                if ok:
                    survivors.add(cand)
            if survivors != candidates[nt]:
                candidates[nt] = survivors
                changed = True
        # Hole pass: a hole has no productions of its own, so its
        # candidates shrink by *context* — candidate A survives only if
        # every production mentioning the hole still parses with the
        # hole pinned to A.
        for hole in holes:
            if not occurrences[hole]:
                continue
            survivors = set()
            for cand in candidates[hole]:
                pinned_classes = dict(match_classes)
                pinned_classes[hole] = frozenset({cand})
                ok = all(
                    any(
                        memo_parse(parent_cand, rhs, pinned_classes)
                        for parent_cand in candidates[lhs]
                        if parent_cand not in ref_terminals
                    )
                    for lhs, rhs in occurrences[hole]
                )
                if ok:
                    survivors.add(cand)
            if survivors != candidates[hole]:
                candidates[hole] = survivors
                changed = True
    return candidates


#: Results of :func:`derivability` keyed on the *content* of both
#: grammars (their structural signatures) plus every argument that can
#: influence the answer.  Phase-2 subgrammars recur heavily — the same
#: sanitized fragment reaches many hotspots, and every hotspot asks
#: about the same reference grammar — so content addressing turns the
#: Definition 3.2 fixpoint + search into a dictionary lookup on repeats.
_DERIVABILITY_MEMO: dict[tuple, Derivability] = {}
_DERIVABILITY_MEMO_CAP = 4096


def derivability(
    generated: TokenGrammar,
    reference: TokenGrammar,
    root: str,
    allowed_roots: Iterable[str] | None = None,
    pinned: Mapping[str, str] | None = None,
    search_budget: int = 2000,
) -> Derivability:
    """Is ``generated`` (rooted at ``root``) derivable from ``reference``?

    Definition 3.2: find ``F`` with ``F(X) ⇒*_ref F*(α)`` for every
    production ``X → α``.  Terminals map to themselves; every terminal of
    the generated grammar must therefore be a terminal of the reference
    grammar (otherwise: not derivable).

    The candidate sets start at all reference nonterminals (or
    ``allowed_roots`` for the root) and shrink: drop ``A`` from ``C(X)``
    if some production of ``X`` cannot be parsed from ``A`` with inner
    variables ranging over their current candidates.  After the fixed
    point, a concrete ``F`` is searched for and *verified* — only a
    verified mapping yields ``derivable=True``.
    """
    if allowed_roots is not None:
        allowed_roots = list(allowed_roots)
    memo_key = (
        generated.signature(),
        reference.signature(),
        root,
        tuple(sorted(allowed_roots)) if allowed_roots is not None else None,
        tuple(sorted(pinned.items())) if pinned else None,
        search_budget,
    )
    cached = _DERIVABILITY_MEMO.get(memo_key)
    if cached is None:
        cached = _derivability_uncached(
            generated, reference, root, allowed_roots, pinned, search_budget
        )
        if len(_DERIVABILITY_MEMO) >= _DERIVABILITY_MEMO_CAP:
            _DERIVABILITY_MEMO.clear()
        _DERIVABILITY_MEMO[memo_key] = cached
    # hand out a copy so callers can't poison the memo entry
    return Derivability(
        cached.derivable,
        dict(cached.mapping) if cached.mapping is not None else None,
        cached.reason,
    )


def _derivability_uncached(
    generated: TokenGrammar,
    reference: TokenGrammar,
    root: str,
    allowed_roots: Iterable[str] | None,
    pinned: Mapping[str, str] | None,
    search_budget: int,
) -> Derivability:
    ref_terminals = reference.terminals()
    for rules in generated.productions.values():
        for rhs in rules:
            for symbol in rhs:
                if not generated.is_nonterminal(symbol) and symbol not in ref_terminals:
                    return Derivability(
                        False, reason=f"terminal {symbol!r} unknown to reference grammar"
                    )

    allowed: dict[str, Iterable[str]] = {}
    if allowed_roots is not None:
        allowed[root] = list(allowed_roots)
    if pinned:
        for nt, symbol in pinned.items():
            allowed[nt] = [symbol]
    candidates = candidate_fixpoint(generated, reference, allowed)
    if not candidates[root]:
        return Derivability(False, reason="no candidate for root survives")
    if any(not cands for cands in candidates.values()):
        empty = [nt for nt, cands in candidates.items() if not cands]
        return Derivability(
            False, reason=f"no candidates survive for {empty[:3]}"
        )

    # ---- verification: pick and check one concrete mapping ----------------
    order = sorted(generated.productions, key=lambda nt: len(candidates[nt]))
    mapping = _search_mapping(
        generated, reference, ref_terminals, candidates, order,
        [search_budget], 0, {},
    )
    if mapping is None:
        return Derivability(False, reason="no consistent mapping verified")
    return Derivability(True, mapping=mapping)


def _verify_mapping(
    generated: TokenGrammar,
    reference: TokenGrammar,
    ref_terminals: set[str],
    mapping: dict[str, str],
) -> bool:
    """Is every production image derivable under ``mapping``?"""
    for nt, rules in generated.productions.items():
        target = mapping[nt]
        for rhs in rules:
            image = tuple(
                mapping[s] if generated.is_nonterminal(s) else s for s in rhs
            )
            if target in ref_terminals:
                if image != (target,):
                    return False
            elif not parse_sentential_form(reference, target, image):
                return False
    return True


def _search_mapping(
    generated: TokenGrammar,
    reference: TokenGrammar,
    ref_terminals: set[str],
    candidates: dict[str, set[str]],
    order: list[str],
    budget: list[int],
    index: int,
    mapping: dict[str, str],
) -> dict[str, str] | None:
    """Depth-first search for one verified mapping, assigning ``order``
    from ``index`` on; ``budget[0]`` caps the complete mappings verified."""
    if budget[0] <= 0:
        return None
    if index == len(order):
        budget[0] -= 1
        if _verify_mapping(generated, reference, ref_terminals, mapping):
            return dict(mapping)
        return None
    nt = order[index]
    for cand in sorted(candidates[nt]):
        mapping[nt] = cand
        found = _search_mapping(
            generated, reference, ref_terminals, candidates, order, budget,
            index + 1, mapping,
        )
        if found is not None:
            return found
        del mapping[nt]
    return None


# ---------------------------------------------------------------------------
# character-level membership in a symbol grammar
# ---------------------------------------------------------------------------
#
# The differential oracle (:mod:`repro.oracle`) must decide, for every
# concrete query a fuzzed page produces, whether the string is a member
# of the hotspot's analysis grammar.  A per-query CYK table (the tests'
# reference checker) is too slow inside a fuzz loop that asks thousands
# of membership queries against the *same* grammar.  Here we lower the
# symbol grammar once to a character-level :class:`TokenGrammar`
# (literals split into single-character tokens, each distinct
# ``CharSet`` interned as one placeholder token) and answer each query
# with the Earley recognizer above, using ``match_classes`` to let an
# input character scan any charset token that contains it.


def char_token_grammar(
    grammar: "Grammar", root: "Nonterminal"
) -> tuple[TokenGrammar, dict[str, "CharSet"]]:
    """Lower ``grammar`` (rooted at ``root``) to a char-level token
    grammar.  Returns the token grammar plus the interning table mapping
    placeholder tokens back to their charsets.

    Nonterminals are renamed to canonical indices, so equal-fingerprint
    grammars lower to identical token grammars.  Production-less
    nonterminals (pure labels) become nonterminals with an empty rule
    list — the empty language, which is the correct reading: nothing is
    derivable from them.
    """
    from .charset import CharSet
    from .grammar import Lit

    order = grammar.canonical_order(root)
    names = {nt: f"N{i}" for i, nt in enumerate(order)}
    lowered = TokenGrammar(names[root])
    charset_tokens: dict[str, CharSet] = {}
    interned: dict[CharSet, str] = {}
    for nt in order:
        name = names[nt]
        lowered.productions.setdefault(name, [])
        for rhs in grammar.productions.get(nt, ()):
            tokens: list[str] = []
            for symbol in rhs:
                if isinstance(symbol, Lit):
                    tokens.extend(symbol.text)
                elif isinstance(symbol, CharSet):
                    token = interned.get(symbol)
                    if token is None:
                        token = f"⟨cs{len(interned)}⟩"
                        interned[symbol] = token
                        charset_tokens[token] = symbol
                    tokens.append(token)
                else:
                    tokens.append(names[symbol])
            lowered.add(name, tokens)
    return lowered, charset_tokens


def char_membership(
    prepared: tuple[TokenGrammar, dict[str, "CharSet"]], text: str
) -> bool:
    """Is ``text`` in the language of a grammar lowered by
    :func:`char_token_grammar`?  ``prepared`` is that function's result —
    build it once per hotspot and reuse it across queries."""
    lowered, charset_tokens = prepared
    match_classes = {
        char: frozenset(
            {char}
            | {token for token, charset in charset_tokens.items() if char in charset}
        )
        for char in set(text)
    }
    return parse_sentential_form(lowered, lowered.start, list(text), match_classes)
