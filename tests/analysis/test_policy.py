"""Tests for the policy-conformance checker (phase 2), end-to-end."""

import textwrap

import pytest

from repro.analysis.analyzer import analyze_page
from repro.lang.grammar import DIRECT, INDIRECT

from ..lang.reference import ref_generates


@pytest.fixture
def check(tmp_path):
    def run(source, **other_files):
        (tmp_path / "page.php").write_text(textwrap.dedent(source))
        for name, content in other_files.items():
            path = tmp_path / name.replace("__", "/")
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(content))
        reports, _ = analyze_page(tmp_path, "page.php")
        return reports

    return run


def checks_fired(report):
    return {f.check for f in report.findings}


class TestC1OddQuotes:
    def test_raw_input_in_quotes(self, check):
        (report,) = check(
            """\
            <?php
            $id = $_GET['id'];
            mysql_query("SELECT * FROM t WHERE id='$id'");
            """
        )
        assert not report.verified
        assert any(f.check == "odd-quotes" for f in report.violations)

    def test_direct_category(self, check):
        (report,) = check(
            "<?php mysql_query(\"SELECT * FROM t WHERE a='{$_GET['a']}'\");"
        )
        assert report.violations[0].category == DIRECT

    def test_witness_has_odd_quotes(self, check):
        from repro.analysis.quotes import count_unescaped_quotes

        (report,) = check(
            """\
            <?php
            $id = $_GET['id'];
            mysql_query("SELECT * FROM t WHERE id='$id'");
            """
        )
        witness = report.violations[0].witness
        assert witness
        assert count_unescaped_quotes(witness) % 2 == 1


class TestC2LiteralPosition:
    def test_addslashes_in_quotes_verified(self, check):
        (report,) = check(
            """\
            <?php
            $id = addslashes($_GET['id']);
            mysql_query("SELECT * FROM t WHERE id='$id'");
            """
        )
        assert report.verified
        assert "literal-position" in checks_fired(report)

    def test_anchored_regex_verified(self, check):
        (report,) = check(
            """\
            <?php
            $id = $_GET['id'];
            if (!preg_match('/^[\\d]+$/', $id)) { exit; }
            mysql_query("SELECT * FROM t WHERE id='$id'");
            """
        )
        assert report.verified

    def test_escaped_but_numeric_context_vulnerable(self, check):
        """The paper's killer example for taint analysis (§1.1): escaped
        input used OUTSIDE quotes is still injectable."""
        (report,) = check(
            """\
            <?php
            $id = addslashes($_GET['id']);
            mysql_query("SELECT * FROM t WHERE id=$id");
            """
        )
        assert not report.verified

    def test_double_escape_collapse_breaks_literal(self, check):
        """str_replace("''", "'") after addslashes re-opens the literal."""
        (report,) = check(
            """\
            <?php
            $id = addslashes($_GET['id']);
            $id = stripslashes($id);
            mysql_query("SELECT * FROM t WHERE id='$id'");
            """
        )
        assert not report.verified


class TestC3Numeric:
    def test_intval_outside_quotes_safe(self, check):
        (report,) = check(
            """\
            <?php
            $id = intval($_GET['id']);
            mysql_query("SELECT * FROM t WHERE id=" . $id);
            """
        )
        # intval is a full sanitizer: the result is not even tainted
        assert report.verified
        assert not report.findings

    def test_tainted_numeric_language_fires_c3(self, check):
        (report,) = check(
            """\
            <?php
            $id = $_GET['id'];
            if (!preg_match('/^[0-9]+$/', $id)) { exit; }
            mysql_query("SELECT * FROM t WHERE id=" . $id);
            """
        )
        assert report.verified
        assert "numeric" in checks_fired(report)

    def test_sprintf_percent_d_safe(self, check):
        (report,) = check(
            """\
            <?php
            $q = sprintf("SELECT * FROM t WHERE id=%d", $_GET['id']);
            mysql_query($q);
            """
        )
        assert report.verified

    def test_cast_int_safe(self, check):
        (report,) = check(
            """\
            <?php
            $id = (int)$_GET['id'];
            mysql_query("SELECT * FROM t WHERE id=$id LIMIT 1");
            """
        )
        assert report.verified


class TestC4C5Structural:
    def test_raw_input_outside_quotes(self, check):
        (report,) = check(
            """\
            <?php
            $tbl = $_GET['t'];
            mysql_query("SELECT * FROM $tbl");
            """
        )
        assert not report.verified

    def test_order_direction_whitelist_safe(self, check):
        """C5 territory: input confined to ASC|DESC by in_array."""
        (report,) = check(
            """\
            <?php
            $dir = $_GET['dir'];
            if (!in_array($dir, array('ASC', 'DESC'))) { exit; }
            mysql_query("SELECT * FROM t ORDER BY name $dir");
            """
        )
        assert report.verified

    def test_column_whitelist_safe(self, check):
        (report,) = check(
            """\
            <?php
            $col = $_GET['c'];
            if ($col == 'name') { } else { $col = 'date'; }
            mysql_query("SELECT * FROM t ORDER BY $col");
            """
        )
        assert report.verified

    def test_attack_keyword_reachable(self, check):
        (report,) = check(
            """\
            <?php
            $x = $_GET['x'];
            if (!eregi('[0-9]+', $x)) { exit; }
            mysql_query("SELECT * FROM t WHERE id=" . $x);
            """
        )
        assert not report.verified


class TestIndirect:
    def test_db_roundtrip_indirect_report(self, check):
        (report_first, report_second) = check(
            """\
            <?php
            $res = mysql_query('SELECT name FROM users');
            $row = mysql_fetch_assoc($res);
            $name = $row['name'];
            mysql_query("INSERT INTO log (who) VALUES ('$name')");
            """
        )
        assert report_first.verified
        assert not report_second.verified
        assert report_second.violations[0].category == INDIRECT

    def test_direct_dominates_indirect(self, check):
        *_, report = check(
            """\
            <?php
            $row = mysql_fetch_assoc(mysql_query('SELECT a FROM t'));
            $mix = $row['a'] . $_GET['b'];
            mysql_query("SELECT * FROM t WHERE x='$mix'");
            """
        )
        categories = {f.category for f in report.violations}
        assert DIRECT in categories


class TestMultipleHotspots:
    def test_each_hotspot_reported(self, check):
        reports = check(
            """\
            <?php
            mysql_query('SELECT 1 FROM a');
            $x = $_GET['x'];
            mysql_query("SELECT * FROM b WHERE v='$x'");
            """
        )
        assert len(reports) == 2
        assert reports[0].verified
        assert not reports[1].verified

    def test_findings_deduplicated(self, check):
        (report,) = check(
            """\
            <?php
            $x = $_GET['x'];
            if (!eregi('[0-9]+', $x)) { exit; }
            mysql_query("SELECT * FROM t WHERE id='$x'");
            """
        )
        assert len(report.violations) == 1


class TestFigure2EndToEnd:
    """The paper's running example, verbatim."""

    FIGURE2 = """\
        <?php
        isset($_GET['userid']) ?
            $userid = $_GET['userid'] : $userid = '';
        if ($USER['groupid'] != 1)
        {
            unp_msg($gp_permserror);
            exit;
        }
        if ($userid == '')
        {
            unp_msg($gp_invalidrequest);
            exit;
        }
        if (!eregi('[0-9]+', $userid))
        {
            unp_msg('You entered an invalid user ID.');
            exit;
        }
        $getuser = $DB->query("SELECT * FROM `unp_user`"
            ."WHERE userid='$userid'");
        if (!$DB->is_single_row($getuser))
        {
            unp_msg('You entered an invalid user ID.');
            exit;
        }
        """

    def test_vulnerability_found(self, check):
        (report,) = check(self.FIGURE2)
        assert not report.verified
        assert report.violations[0].category == DIRECT

    def test_anchoring_fixes_it(self, check):
        fixed = self.FIGURE2.replace("eregi('[0-9]+'", "eregi('^[0-9]+$'")
        (report,) = check(fixed)
        assert report.verified

    def test_attack_query_derivable(self, check, tmp_path):
        import textwrap as tw

        from repro.analysis.stringtaint import StringTaintAnalysis

        (tmp_path / "fig2.php").write_text(tw.dedent(self.FIGURE2))
        result = StringTaintAnalysis(tmp_path).analyze_file("fig2.php")
        attack = (
            "SELECT * FROM `unp_user`WHERE userid="
            "'1'; DROP TABLE unp_user; --'"
        )
        assert ref_generates(result.grammar, result.hotspots[0].query.nt, attack)


class TestExampleQueryFallback:
    def test_fallback_when_marker_unreachable(self):
        """Regression: when no sampled context string contains the quote
        marker, _example_query must still return an actionable string —
        a marker-free sample with the witness appended — never "" (and
        never the old None-ish empty report line)."""
        from repro.analysis.policy import _example_query
        from repro.lang.grammar import DIRECT, Grammar, Lit

        grammar = Grammar()
        root = grammar.fresh("query")
        labeled = grammar.fresh("evil")
        # the labeled nonterminal never occurs in any rhs, so the context
        # grammar places no marker anywhere
        grammar.add(root, (Lit("SELECT 1"),))
        grammar.add(labeled, (Lit("'"),))
        grammar.add_label(labeled, DIRECT)
        example = _example_query(grammar, root, labeled, [labeled], "'")
        assert example == "SELECT 1'"

    def test_fallback_without_any_sample_returns_witness(self):
        from repro.analysis.policy import _example_query
        from repro.lang.grammar import DIRECT, Grammar

        grammar = Grammar()
        root = grammar.fresh("query")   # no productions: nothing to sample
        labeled = grammar.fresh("evil")
        grammar.add_label(labeled, DIRECT)
        example = _example_query(grammar, root, labeled, [labeled], "'")
        assert example == "'"

    def test_marker_path_still_preferred(self, check):
        """When the marker is reachable the spliced query is unchanged by
        the fallback (the existing corpus behaviour)."""
        (report,) = check(
            """\
            <?php
            $id = $_GET['id'];
            mysql_query("SELECT * FROM t WHERE id='$id'");
            """
        )
        example = report.violations[0].example_query
        assert example.startswith("SELECT * FROM t WHERE id='")
