"""Tests for CFG ∩ FSA intersection with taint propagation (Figure 7)."""

from hypothesis import given, settings, strategies as st

from repro.lang.charset import CharSet, DIGITS
from repro.lang.fsa import NFA
from repro.lang.grammar import DIRECT, Grammar, INDIRECT, Lit
from repro.lang.intersect import intersect, intersection_is_empty
from repro.lang.regex import parse_regex, search_language

from .reference import ref_generates


def regex_dfa(pattern: str):
    return search_language(parse_regex(pattern)).determinize()


def full_dfa(pattern: str):
    from repro.lang.regex import full_match_language

    return full_match_language(parse_regex(pattern)).determinize()


def balanced():
    g = Grammar()
    s = g.fresh("S")
    g.start = s
    g.add(s, (Lit("("), s, Lit(")")))
    g.add(s, ())
    return g, s


class TestEmptiness:
    def test_nonempty_intersection(self):
        g, s = balanced()
        assert not intersection_is_empty(g, s, full_dfa(r"[()]*"))

    def test_empty_intersection(self):
        g, s = balanced()
        # balanced parens never contain a digit
        assert intersection_is_empty(g, s, regex_dfa("[0-9]"))

    def test_epsilon_in_both(self):
        g, s = balanced()
        assert not intersection_is_empty(g, s, full_dfa("x?"))

    def test_empty_grammar(self):
        g = Grammar()
        s = g.fresh("S")
        g.add(s, (s,))  # no terminal derivation
        assert intersection_is_empty(g, s, full_dfa(".*"))

    def test_empty_dfa(self):
        g, s = balanced()
        assert intersection_is_empty(g, s, NFA.nothing().determinize())

    def test_fixed_depth(self):
        g, s = balanced()
        exactly_two = full_dfa(r"\(\(\)\)")
        assert not intersection_is_empty(g, s, exactly_two)
        unbalanced = full_dfa(r"\(\(\)")
        assert intersection_is_empty(g, s, unbalanced)


class TestIntersectionGrammar:
    def test_language_is_intersection(self):
        g, s = balanced()
        limited = full_dfa(r"(\(\)|\(\(\)\))")  # () or (())
        result, start = intersect(g, s, limited)
        assert ref_generates(result, start, "()")
        assert ref_generates(result, start, "(())")
        assert not ref_generates(result, start, "((()))")
        assert not ref_generates(result, start, "")

    def test_charset_terminals_refined(self):
        g = Grammar()
        s = g.fresh("S")
        g.add(s, (CharSet.any_char(),))
        result, start = intersect(g, s, full_dfa("[0-9]"))
        assert ref_generates(result, start, "5")
        assert not ref_generates(result, start, "a")

    def test_multichar_literal_through_dfa(self):
        g = Grammar()
        s = g.fresh("S")
        g.add(s, (Lit("SELECT "), DIGITS))
        result, start = intersect(g, s, regex_dfa("SELECT"))
        assert ref_generates(result, start, "SELECT 1")

    def test_empty_result_grammar(self):
        g = Grammar()
        s = g.fresh("S")
        g.add(s, (Lit("abc"),))
        result, start = intersect(g, s, full_dfa("xyz"))
        assert result.num_productions() == 0

    def test_figure2_refinement(self):
        """The paper's line 14: eregi('[0-9]+') refines Σ* but keeps attacks."""
        g = Grammar()
        userid = g.fresh("GETuid")
        g.add(userid, ())
        g.add(userid, (CharSet.any_char(), userid))
        g.add_label(userid, DIRECT)
        unanchored = regex_dfa("[0-9]+")
        result, start = intersect(g, userid, unanchored)
        # digits survive ...
        assert ref_generates(result, start, "123")
        # ... and so does the attack payload (the vulnerability!)
        assert ref_generates(result, start, "1'; DROP TABLE unp_user; --")
        # but pure alpha strings are gone
        assert not ref_generates(result, start, "abc")

    def test_anchored_refinement_blocks_attack(self):
        g = Grammar()
        userid = g.fresh("GETuid")
        g.add(userid, ())
        g.add(userid, (CharSet.any_char(), userid))
        anchored = regex_dfa("^[0-9]+$")
        result, start = intersect(g, userid, anchored)
        assert ref_generates(result, start, "123")
        assert not ref_generates(result, start, "1'; DROP TABLE unp_user; --")


class TestTaintPropagation:
    """Theorem 3.1: labels survive intersection."""

    def test_labels_propagated(self):
        g = Grammar()
        s, x = g.fresh("S"), g.fresh("X")
        g.add(s, (Lit("id="), x))
        g.add(x, (DIGITS,))
        g.add(x, (DIGITS, x))
        g.add_label(x, DIRECT)
        result, start = intersect(g, s, regex_dfa("id=[0-9]+"))
        tainted = result.labeled_nonterminals(DIRECT)
        assert tainted, "direct label must survive intersection"
        # every tainted triple must derive the original tainted substrings
        assert any(ref_generates(result, nt, "1") for nt in tainted)

    def test_untainted_stay_untainted(self):
        g = Grammar()
        s = g.fresh("S")
        g.add(s, (Lit("abc"),))
        result, _ = intersect(g, s, regex_dfa("abc"))
        assert not result.labeled_nonterminals()

    def test_both_labels_propagate(self):
        g = Grammar()
        x = g.fresh("X")
        g.add(x, (Lit("v"),))
        g.add_label(x, DIRECT)
        g.add_label(x, INDIRECT)
        result, start = intersect(g, x, regex_dfa("v"))
        assert result.has_label(start, DIRECT)
        assert result.has_label(start, INDIRECT)


class TestDifferentialRegularCase:
    """For regular grammars, CFG ∩ FSA must agree with DFA ∩ DFA."""

    PATTERNS = ["a*b", "(ab)*", "a|bb", "[ab]*a"]

    @given(
        st.sampled_from(PATTERNS),
        st.sampled_from(PATTERNS),
        st.text(alphabet="ab", max_size=6),
    )
    @settings(max_examples=120, deadline=None)
    def test_agrees_with_automaton_product(self, left_pat, right_pat, text):
        from repro.lang.regex import full_match_language

        left_nfa = full_match_language(parse_regex(left_pat))
        grammar, root = _nfa_to_grammar(left_nfa)
        right_dfa = full_match_language(parse_regex(right_pat)).determinize()
        result, start = intersect(grammar, root, right_dfa)
        expected = left_nfa.accepts_string(text) and right_dfa.accepts_string(text)
        assert ref_generates(result, start, text) == expected


def _nfa_to_grammar(nfa):
    """Right-linear grammar for an NFA's language (test helper)."""
    g = Grammar()
    state_nts = {s: g.fresh(f"q{s}") for s in range(nfa.num_states)}
    for src, edges in nfa.transitions.items():
        for label, dst in edges:
            g.add(state_nts[src], (label, state_nts[dst]))
    for src, dsts in nfa.epsilons.items():
        for dst in dsts:
            g.add(state_nts[src], (state_nts[dst],))
    for acc in nfa.accepts:
        g.add(state_nts[acc], ())
    g.start = state_nts[nfa.start]
    return g, g.start
