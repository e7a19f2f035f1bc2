"""Memoized SQL context forms: same candidates as the all-forms loop.

``_context_candidates`` keeps the SQL symbols that fit the hole of every
enumerated context form.  The per-form candidate lists are memoized by
form, and these tests pin them to the un-memoized loop they replace.
"""

from hypothesis import given, settings, strategies as st

from repro.analysis.policy import HOLE_TOKEN, _context_candidates, _form_candidates
from repro.lang.earley import TokenGrammar, parse_sentential_form
from repro.sql.grammar import sql_grammar
from repro.sql.lexer import token_symbols

#: the two distinct hole forms warp_cms's listing pages enumerate
WARP_FORMS = [
    ("SELECT", "*", "FROM", "IDENT", "ORDER", "BY", HOLE_TOKEN, "ASC",
     "LIMIT", "-", "NUMBER", ",", "NUMBER"),
    ("SELECT", "*", "FROM", "IDENT", "ORDER", "BY", HOLE_TOKEN, "ASC",
     "LIMIT", "NUMBER", ",", "NUMBER"),
]

QUERIES = [
    "SELECT * FROM news WHERE id = 5",
    "SELECT title, body FROM posts WHERE slug = 'x' ORDER BY id DESC LIMIT 3",
    "UPDATE blocks SET title = 'a', body = 'b' WHERE id = 7",
    "INSERT INTO users (name, pass) VALUES ('n', 'p')",
    "DELETE FROM comments WHERE id IN (1, 2) AND user = 'u'",
]


def reference_candidates(forms):
    """The loop the memo replaced: every candidate, every form."""
    sql = sql_grammar()
    return [
        candidate
        for candidate in list(sql.nonterminals()) + sorted(sql.terminals())
        if all(
            parse_sentential_form(
                sql,
                sql.start,
                [candidate if s == HOLE_TOKEN else s for s in form],
            )
            for form in forms
        )
    ]


def context_grammar(forms):
    """A token grammar whose finite language is exactly ``forms``."""
    grammar = TokenGrammar("ctx")
    for form in forms:
        grammar.add("ctx", list(form))
    return grammar


@st.composite
def hole_form(draw):
    symbols = token_symbols(draw(st.sampled_from(QUERIES)))
    position = draw(st.integers(0, len(symbols) - 1))
    return tuple(symbols[:position] + [HOLE_TOKEN] + symbols[position + 1 :])


class TestFormCandidates:
    def test_warp_forms_match_reference(self):
        for form in WARP_FORMS:
            assert list(_form_candidates(form)) == reference_candidates([form])
        got = _context_candidates(context_grammar(WARP_FORMS), sql_grammar())
        assert got == reference_candidates(WARP_FORMS)
        assert got  # the ORDER BY hole admits a column

    @given(st.lists(hole_form(), min_size=1, max_size=3))
    @settings(max_examples=30, deadline=None)
    def test_random_forms_match_reference(self, forms):
        got = _context_candidates(context_grammar(forms), sql_grammar())
        assert got == reference_candidates(sorted(set(forms)))

    def test_memo_is_keyed_by_form(self):
        form = WARP_FORMS[0]
        first = _form_candidates(form)
        before = _form_candidates.cache_info().hits
        assert _form_candidates(form) is first
        assert _form_candidates.cache_info().hits == before + 1
