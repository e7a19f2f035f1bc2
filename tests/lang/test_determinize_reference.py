"""The subset construction and minimization agree with their references
automaton for automaton: the same state numbering, accepts and per-state
edge lists (``reference.dfa_shape``), not merely the same language.

Verdicts, witnesses and golden documents read DFA state numbers and edge
order (shortest strings take the first edge), so an equal language is
not enough.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

from . import reference as ref
from repro.analysis import quotes
from repro.lang.fsa import NFA
from repro.lang.regex import compile_pattern, full_match_language, parse_regex, search_language

REPO_ROOT = Path(__file__).resolve().parents[2]


def assert_same_as_reference(nfa: NFA) -> None:
    dfa = nfa.determinize()
    expected = ref.ref_determinize(nfa)
    assert ref.dfa_shape(dfa) == ref.dfa_shape(expected)
    assert ref.dfa_shape(dfa.minimize()) == ref.dfa_shape(ref.ref_minimize(expected))


def test_c4_automaton_equals_reference():
    patterns = [
        r";", r"--", r"#", r"/\*",
        r"[dD][rR][oO][pP][ \t]",
        r"[dD][eE][lL][eE][tT][eE][ \t]",
        r"[iI][nN][sS][eE][rR][tT][ \t]",
        r"[uU][pP][dD][aA][tT][eE][ \t]",
        r"[uU][nN][iI][oO][nN][ \t]",
        r"[ \t][oO][rR][ \t]",
        r"[ \t][aA][nN][dD][ \t]",
        r"=",
    ]
    core = NFA.nothing()
    for pattern in patterns:
        core = core.union(compile_pattern(parse_regex(pattern)))
    language = NFA.any_string().concat(core).concat(NFA.any_string())
    expected = ref.ref_minimize(ref.ref_determinize(language))
    assert ref.dfa_shape(quotes.non_confinable_substrings()) == ref.dfa_shape(expected)
    assert expected.num_states == 28


#: run in a fresh interpreter, where every automaton cache is still
#: empty: check each determinize and minimize call that building the
#: quotes automata and warming every sink policy makes
_EVERY_POLICY = r"""
import json
from repro.lang.fsa import DFA, NFA
from tests.lang import reference as ref

determinize, minimize = NFA.determinize, DFA.minimize
calls = {"determinize": 0, "minimize": 0, "differ": 0}

def checked(name, method, reference):
    def run(self):
        out = method(self)
        calls[name] += 1
        if ref.dfa_shape(out) != ref.dfa_shape(reference(self)):
            calls["differ"] += 1
        return out
    return run

NFA.determinize = checked("determinize", determinize, ref.ref_determinize)
DFA.minimize = checked("minimize", minimize, ref.ref_minimize)

from repro.analysis.analyzer import _warm_worker_caches
from repro.analysis.policies import REGISTRY, config_from_dict

_warm_worker_caches(config_from_dict({"policies": sorted(REGISTRY)}))
print(json.dumps(calls))
"""


def test_quotes_and_policy_automata_equal_reference():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(REPO_ROOT / "src"), str(REPO_ROOT)])
    out = subprocess.run(
        [sys.executable, "-c", _EVERY_POLICY],
        capture_output=True, text=True, env=env, cwd=REPO_ROOT, check=True,
    ).stdout
    calls = json.loads(out.splitlines()[-1])
    assert calls["differ"] == 0
    # the quotes automata and every policy's danger automata went through
    assert calls["determinize"] >= 10
    assert calls["minimize"] >= 6


#: regex syntax over a small alphabet with case folding, classes and
#: anchors: enough to make subsets share and split classes
_ATOMS = st.sampled_from(
    ["a", "b", "[ab]", "[^a]", "[a-c]", ".", "\\d", "'", "[^']", "x", "(?:ab)", "^", "$"]
)


@st.composite
def patterns(draw):
    parts = draw(st.lists(_ATOMS, min_size=1, max_size=5))
    pattern = ""
    for part in parts:
        pattern += part + draw(st.sampled_from(["", "", "*", "+", "?", "{1,2}"]))
    if draw(st.booleans()):
        pattern += "|" + draw(_ATOMS)
    return pattern


@given(patterns(), st.booleans(), st.booleans())
@settings(max_examples=150, deadline=None)
def test_random_regex_automata_equal_reference(pattern, search, ignore_case):
    parsed = parse_regex(pattern, ignore_case=ignore_case)
    nfa = search_language(parsed) if search else full_match_language(parsed)
    assert_same_as_reference(nfa)


def test_keyword_trie_equals_reference():
    words = ["select", "SELECT", "union", "or", "order", "'", "--", ""]
    assert_same_as_reference(NFA.from_strings(words))


def test_empty_and_epsilon_languages_equal_reference():
    assert_same_as_reference(NFA.nothing())
    assert_same_as_reference(NFA.epsilon_language())
    assert_same_as_reference(NFA.any_string())
