"""The enforcement compiler and its stdlib-only runtime checker.

Guards are compiled from real analysis output: a tiny page is run
through the string-taint analysis, the unsafe finding's hotspot scope
grammar becomes a safe-query-automaton profile, and the profile must
accept confined queries, reject the attack shape, and survive a JSON
round-trip into the standalone runtime."""

import json

from repro.analysis import quotes
from repro.analysis.analyzer import check_hotspot
from repro.analysis.policies.base import (
    contains_any,
    contains_string,
    starts_with_any,
)
from repro.analysis.policies.evalinj import PHP_METACHARS
from repro.analysis.policies.registry import REGISTRY, policy_instance
from repro.analysis.policies.shell import shell_breakout
from repro.analysis.policies.xss import markup_capable
from repro.analysis.policies.xss_context import _context_table
from repro.analysis.stringtaint import StringTaintAnalysis
from repro.lang.charset import DIGITS, CharSet
from repro.lang.grammar import Grammar, Lit
from repro.lang.intersect import intersection_is_empty
from repro.remediate import guard_runtime
from repro.remediate.guard import (
    _shortest_via,
    compile_guard,
    safe_hole_intervals,
)
from repro.remediate.guard_runtime import (
    GUARD_PROFILE_VERSION,
    GuardChecker,
    check_query,
)


def analyze_unsafe(tmp_path, source):
    """Build a one-page app, return (grammar, hotspot, unsafe finding)."""
    root = tmp_path / "app"
    root.mkdir()
    (root / "index.php").write_text(source)
    analysis = StringTaintAnalysis(root)
    result = analysis.analyze_file(root / "index.php")
    for spot in result.hotspots:
        report = check_hotspot(result.grammar, spot)
        for finding in report.findings:
            if not finding.safe:
                return result.grammar, spot, finding
    raise AssertionError("expected an unsafe finding")


QUOTED_PAGE = (
    "<?php\n"
    "$id = $_GET['id'];\n"
    "mysql_query(\"SELECT * FROM t WHERE name='$id'\");\n"
)

UNQUOTED_PAGE = (
    "<?php\n"
    "$id = $_GET['id'];\n"
    "mysql_query(\"SELECT * FROM t WHERE id=$id\");\n"
)


class TestSafeHoleIntervals:
    def test_quoted_sql_excludes_quotes(self):
        intervals = safe_hole_intervals("odd-quotes", "")
        banned = {ord("'"), ord('"'), ord("\\")}
        for lo, hi in intervals:
            assert not banned.intersection(range(lo, hi + 1))
        allowed = {
            code for lo, hi in intervals for code in range(lo, hi + 1)
        }
        assert ord("a") in allowed and ord(" ") in allowed

    def test_unquoted_sql_is_numeric_shape(self):
        assert safe_hole_intervals("numeric", "sql") is None

    def test_eval_is_empty_string_only(self):
        assert safe_hole_intervals("anything", "eval") == ()

    def test_shell_excludes_metacharacters(self):
        intervals = safe_hole_intervals("shell-metacharacter", "shell")
        allowed = {
            code for lo, hi in intervals for code in range(lo, hi + 1)
        }
        for banned in ";|&`$":
            assert ord(banned) not in allowed


def _hole_grammar(intervals):
    """The language a guard hole with ``intervals`` admits."""
    grammar = Grammar()
    hole = grammar.fresh("hole")
    if intervals is None:
        digits = grammar.fresh("digits")
        grammar.add(digits, (DIGITS,))
        grammar.add(digits, (digits, DIGITS))
        grammar.add(hole, (digits,))
        grammar.add(hole, (Lit("-"), digits))
    else:
        grammar.add(hole, ())
        if intervals:
            grammar.add(hole, (CharSet(intervals), hole))
    return grammar, hole


def _danger_languages(policy_id: str, check: str) -> list:
    """The violation languages of one check a policy reports.  A SQL
    check without a regular one of its own (C3–C5, and the safe
    ``literal-position``) must keep its hole within what C3 proves
    safe, the numeric literals."""
    if policy_id == "sql":
        return {
            "odd-quotes": [quotes.odd_unescaped_quotes()],
            "literal-position": [quotes.has_unescaped_quote()],
            "literal-break": [quotes.has_unescaped_quote()],
            "attack-string": [
                quotes.non_confinable_substrings(),
                quotes.non_numeric_literals(),
            ],
        }.get(check, [quotes.non_numeric_literals()])
    if policy_id == "xss-context":
        return [
            danger
            for rule, dangers, _ in _context_table().values()
            if rule == check
            for danger in dangers
        ]
    return {
        "xss": [markup_capable()],
        "shell": [shell_breakout()],
        "path": [
            contains_string(".."),
            starts_with_any(("/", "\\")),
            contains_any(":\0"),
        ],
        "eval": [contains_any(PHP_METACHARS)],
    }[policy_id]


class TestHolesAvoidDanger:
    def test_every_reported_check_has_a_hole_outside_its_danger(self):
        """No string of a check's guard hole is in that check's danger
        language, for every check of every registered policy."""
        for policy_id in REGISTRY:
            for rule in policy_instance(policy_id).rules:
                check = rule["id"]
                dangers = _danger_languages(policy_id, check)
                assert dangers, (policy_id, check)
                grammar, hole = _hole_grammar(
                    safe_hole_intervals(check, policy_id)
                )
                for danger in dangers:
                    assert intersection_is_empty(grammar, hole, danger), (
                        policy_id, check,
                    )

    def test_context_attacks_fall_outside_their_holes(self):
        for check, attack in (
            ("xss-context-url", "javascript:alert(1)"),
            ("xss-context-attr", "a onmouseover=alert(1)"),
            ("xss-context-js", "x;alert(1)//"),
            ("xss-context-unknown", "x;alert(1)//"),
        ):
            intervals = safe_hole_intervals(check, "xss-context")
            assert not all(
                any(lo <= ord(char) <= hi for lo, hi in intervals)
                for char in attack
            ), check


class TestCompileGuard:
    def test_quoted_guard_accepts_confined_rejects_breakout(self, tmp_path):
        grammar, spot, finding = analyze_unsafe(tmp_path, QUOTED_PAGE)
        profile = compile_guard(
            grammar, spot.query.nt, finding,
            site={"file": "index.php", "line": 3},
        )
        assert profile["version"] == GUARD_PROFILE_VERSION
        assert profile["holes"]
        checker = GuardChecker(profile)
        assert checker.check("SELECT * FROM t WHERE name='abc'")
        assert checker.check("SELECT * FROM t WHERE name=''")
        assert not checker.check("SELECT * FROM t WHERE name='a' OR '1'='1'")
        assert not checker.check("SELECT * FROM t WHERE name='a'b'")

    def test_self_test_is_recorded_and_passes(self, tmp_path):
        grammar, spot, finding = analyze_unsafe(tmp_path, QUOTED_PAGE)
        profile = compile_guard(grammar, spot.query.nt, finding)
        assert profile["self_test"] == {
            "example_accepted": True,
            "witness_rejected": True,
        }
        # the recorded examples genuinely produce those verdicts
        assert check_query(profile, profile["examples"]["accept"])
        assert not check_query(profile, profile["examples"]["reject"])

    def test_unquoted_guard_bans_quote_characters(self, tmp_path):
        # the cascade fires odd-quotes on an unconstrained GET hole, so
        # the compiled guard's hole language excludes quote characters
        grammar, spot, finding = analyze_unsafe(tmp_path, UNQUOTED_PAGE)
        assert finding.check == "odd-quotes"
        profile = compile_guard(grammar, spot.query.nt, finding)
        checker = GuardChecker(profile)
        assert checker.check("SELECT * FROM t WHERE id=42")
        assert not checker.check("SELECT * FROM t WHERE id='1'")

    def test_numeric_check_guard_confines_to_integers(self, tmp_path):
        from types import SimpleNamespace

        grammar, spot, _ = analyze_unsafe(tmp_path, UNQUOTED_PAGE)
        finding = SimpleNamespace(
            check="numeric", policy="", example_query="", witness="1 OR 1=1"
        )
        profile = compile_guard(grammar, spot.query.nt, finding)
        checker = GuardChecker(profile)
        assert checker.check("SELECT * FROM t WHERE id=42")
        assert checker.check("SELECT * FROM t WHERE id=-7")
        assert not checker.check("SELECT * FROM t WHERE id=1 OR 1=1")
        assert not checker.check("SELECT * FROM t WHERE id=")

    def test_profile_round_trips_through_json(self, tmp_path):
        grammar, spot, finding = analyze_unsafe(tmp_path, QUOTED_PAGE)
        profile = compile_guard(grammar, spot.query.nt, finding)
        revived = json.loads(json.dumps(profile))
        checker = GuardChecker(revived)
        assert checker.check(profile["examples"]["accept"])
        assert not checker.check(profile["examples"]["reject"])

    def test_site_metadata_is_preserved(self, tmp_path):
        grammar, spot, finding = analyze_unsafe(tmp_path, QUOTED_PAGE)
        site = {"file": "index.php", "line": 3, "sink": "mysql_query"}
        profile = compile_guard(grammar, spot.query.nt, finding, site=site)
        assert profile["site"] == site
        assert profile["generator"] == "sqlciv"


class TestShortestVia:
    PROFILE = {
        "version": GUARD_PROFILE_VERSION,
        "start": "S",
        "holes": ["H"],
        "productions": {
            "S": [
                [["lit", "z"]],
                [["lit", "a"], ["nt", "H"], ["lit", "b"]],
            ],
            "H": [[], [["nt", "H"], ["set", [[48, 57]]]]],
        },
    }

    def test_routes_through_the_marked_hole(self):
        # the plain shortest string is "z", which never touches H; the
        # via-string must take the a-H-b alternative instead
        checker = GuardChecker(self.PROFILE)
        assert checker.shortest_string() == "z"
        assert _shortest_via(checker, {"H"}, "S") == "ab"

    def test_marked_start_falls_back_to_plain_shortest(self):
        checker = GuardChecker(self.PROFILE)
        assert _shortest_via(checker, {"S"}, "S") == "z"

    def test_unreachable_mark_yields_none(self):
        checker = GuardChecker(self.PROFILE)
        assert _shortest_via(checker, {"X"}, "S") is None


class TestGuardRuntimeCli:
    def _write_profile(self, tmp_path):
        grammar, spot, finding = analyze_unsafe(tmp_path, QUOTED_PAGE)
        profile = compile_guard(grammar, spot.query.nt, finding)
        path = tmp_path / "guard.json"
        path.write_text(json.dumps(profile))
        return path, profile

    def test_accept_exits_zero(self, tmp_path, capsys):
        path, profile = self._write_profile(tmp_path)
        code = guard_runtime.main([str(path), profile["examples"]["accept"]])
        assert code == 0
        assert capsys.readouterr().out.strip() == "accept"

    def test_reject_exits_one(self, tmp_path, capsys):
        path, profile = self._write_profile(tmp_path)
        code = guard_runtime.main([str(path), profile["examples"]["reject"]])
        assert code == 1
        assert capsys.readouterr().out.strip() == "reject"

    def test_usage_exits_two(self, capsys):
        assert guard_runtime.main([]) == 2
        assert "usage" in capsys.readouterr().err
