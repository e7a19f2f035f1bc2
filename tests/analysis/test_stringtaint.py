"""Tests for the string-taint interpreter (phase 1)."""

import textwrap

import pytest

from repro.analysis.stringtaint import StringTaintAnalysis
from repro.lang.grammar import DIRECT, INDIRECT

from ..lang.reference import ref_generates


@pytest.fixture
def app(tmp_path):
    """Write PHP files and analyze an entry page."""

    def run(entry_source, entry="page.php", **other_files):
        (tmp_path / entry).write_text(textwrap.dedent(entry_source))
        for name, source in other_files.items():
            path = tmp_path / name.replace("__", "/")
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source))
        analysis = StringTaintAnalysis(tmp_path)
        return analysis.analyze_file(entry)

    return run


def query_of(result, index=0):
    return result.hotspots[index].query.nt


def gen(result, text, index=0):
    return ref_generates(result.grammar, query_of(result, index), text)


def labels_in_query(result, index=0):
    grammar = result.grammar
    found = set()
    for nt in grammar.reachable(query_of(result, index)):
        found |= grammar.labels.get(nt, set())
    return found


class TestBasics:
    def test_constant_query(self, app):
        result = app("<?php mysql_query('SELECT * FROM t');")
        assert len(result.hotspots) == 1
        assert gen(result, "SELECT * FROM t")
        assert labels_in_query(result) == set()

    def test_concat_query(self, app):
        result = app("<?php $q = 'SELECT * FROM t WHERE id=' . $x; mysql_query($q);")
        # $x undefined → empty string
        assert gen(result, "SELECT * FROM t WHERE id=")

    def test_get_parameter_tainted(self, app):
        result = app(
            "<?php $id = $_GET['id']; mysql_query(\"SELECT * FROM t WHERE id=$id\");"
        )
        assert DIRECT in labels_in_query(result)
        assert gen(result, "SELECT * FROM t WHERE id='; DROP TABLE t; --")

    def test_interpolation(self, app):
        result = app('<?php $a = "x"; mysql_query("SELECT \'$a\' FROM t");')
        assert gen(result, "SELECT 'x' FROM t")

    def test_compound_concat_assign(self, app):
        result = app(
            """\
            <?php
            $q = 'SELECT * FROM t';
            $q .= ' WHERE a=1';
            mysql_query($q);
            """
        )
        assert gen(result, "SELECT * FROM t WHERE a=1")

    def test_method_sink(self, app):
        result = app("<?php $DB->query('SELECT 1 FROM t');")
        assert result.hotspots[0].sink == "->query"

    def test_mysqli_query_argument_position(self, app):
        result = app("<?php mysqli_query($conn, 'SELECT 2 FROM t');")
        assert gen(result, "SELECT 2 FROM t")

    def test_hotspot_line_number(self, app):
        result = app("<?php\n\n\nmysql_query('SELECT 1 FROM t');")
        assert result.hotspots[0].line == 4


class TestControlFlow:
    def test_if_join(self, app):
        result = app(
            """\
            <?php
            if ($c) { $x = 'a'; } else { $x = 'b'; }
            mysql_query("SELECT '$x' FROM t");
            """
        )
        assert gen(result, "SELECT 'a' FROM t")
        assert gen(result, "SELECT 'b' FROM t")

    def test_if_without_else_keeps_old_value(self, app):
        result = app(
            """\
            <?php
            $x = 'a';
            if ($c) { $x = 'b'; }
            mysql_query("SELECT '$x' FROM t");
            """
        )
        assert gen(result, "SELECT 'a' FROM t")
        assert gen(result, "SELECT 'b' FROM t")

    def test_exit_branch_pruned(self, app):
        result = app(
            """\
            <?php
            $x = $_GET['x'];
            if (!preg_match('/^[0-9]+$/', $x)) { exit; }
            mysql_query("SELECT * FROM t WHERE id='$x'");
            """
        )
        assert gen(result, "SELECT * FROM t WHERE id='42'")
        assert not gen(result, "SELECT * FROM t WHERE id=''; DROP--'")

    def test_unanchored_check_keeps_attack(self, app):
        result = app(
            """\
            <?php
            $x = $_GET['x'];
            if (!eregi('[0-9]+', $x)) { exit; }
            mysql_query("SELECT * FROM t WHERE id='$x'");
            """
        )
        assert gen(result, "SELECT * FROM t WHERE id='1'; DROP TABLE t; --'")

    def test_positive_branch_refined(self, app):
        result = app(
            """\
            <?php
            $x = $_GET['x'];
            if (preg_match('/^[ab]+$/', $x)) {
                mysql_query("SELECT * FROM t WHERE n='$x'");
            }
            """
        )
        assert gen(result, "SELECT * FROM t WHERE n='ab'")
        assert not gen(result, "SELECT * FROM t WHERE n='c'")

    def test_equality_refinement(self, app):
        result = app(
            """\
            <?php
            $x = $_GET['x'];
            if ($x == 'news') { mysql_query("SELECT * FROM $x"); }
            """
        )
        assert gen(result, "SELECT * FROM news")
        assert not gen(result, "SELECT * FROM other")

    def test_ternary_branches(self, app):
        result = app(
            """\
            <?php
            $x = $c ? 'a' : 'b';
            mysql_query("SELECT '$x' FROM t");
            """
        )
        assert gen(result, "SELECT 'a' FROM t")
        assert gen(result, "SELECT 'b' FROM t")

    def test_while_loop_accumulation(self, app):
        result = app(
            """\
            <?php
            $cond = 'a=1';
            while ($i < 3) { $cond = $cond . ' AND a=1'; }
            mysql_query("SELECT * FROM t WHERE $cond");
            """
        )
        assert gen(result, "SELECT * FROM t WHERE a=1")
        assert gen(result, "SELECT * FROM t WHERE a=1 AND a=1")
        assert gen(result, "SELECT * FROM t WHERE a=1 AND a=1 AND a=1")

    def test_foreach_element_flows(self, app):
        result = app(
            """\
            <?php
            $parts = array('x', 'y');
            foreach ($parts as $p) { mysql_query("SELECT $p FROM t"); }
            """
        )
        assert gen(result, "SELECT x FROM t")
        assert gen(result, "SELECT y FROM t")

    def test_switch_cases(self, app):
        result = app(
            """\
            <?php
            $order = $_GET['o'];
            switch ($order) {
                case 'asc': $dir = 'ASC'; break;
                case 'desc': $dir = 'DESC'; break;
                default: $dir = 'ASC';
            }
            mysql_query("SELECT * FROM t ORDER BY d $dir");
            """
        )
        assert gen(result, "SELECT * FROM t ORDER BY d ASC")
        assert gen(result, "SELECT * FROM t ORDER BY d DESC")
        assert not gen(result, "SELECT * FROM t ORDER BY d DROP")


class TestFunctions:
    def test_user_function_inlined(self, app):
        result = app(
            """\
            <?php
            function quote($s) { return "'" . addslashes($s) . "'"; }
            $x = $_GET['x'];
            mysql_query("SELECT * FROM t WHERE n=" . quote($x));
            """
        )
        assert gen(result, "SELECT * FROM t WHERE n='abc'")
        assert gen(result, "SELECT * FROM t WHERE n='a\\'b'")
        assert not gen(result, "SELECT * FROM t WHERE n='a'b'")

    def test_function_default_parameter(self, app):
        result = app(
            """\
            <?php
            function tbl($name = 'users') { return $name; }
            mysql_query('SELECT * FROM ' . tbl());
            """
        )
        assert gen(result, "SELECT * FROM users")

    def test_multiple_returns_joined(self, app):
        result = app(
            """\
            <?php
            function pick($c) { if ($c) { return 'a'; } return 'b'; }
            mysql_query('SELECT ' . pick(1) . ' FROM t');
            """
        )
        assert gen(result, "SELECT a FROM t")
        assert gen(result, "SELECT b FROM t")

    def test_recursion_widens_with_taint(self, app):
        result = app(
            """\
            <?php
            function rec($s) { return rec($s . 'a'); }
            $x = rec($_GET['x']);
            mysql_query("SELECT * FROM t WHERE a='$x'");
            """
        )
        assert DIRECT in labels_in_query(result)

    def test_method_call_on_user_class(self, app):
        result = app(
            """\
            <?php
            class DB {
                function safe($s) { return addslashes($s); }
            }
            $db = new DB();
            $x = $db->safe($_GET['x']);
            mysql_query("SELECT * FROM t WHERE a='$x'");
            """
        )
        assert gen(result, "SELECT * FROM t WHERE a='a\\'b'")
        assert not gen(result, "SELECT * FROM t WHERE a='a'b'")

    def test_global_variable_flow(self, app):
        result = app(
            """\
            <?php
            $prefix = 'unp_';
            function table($n) { global $prefix; return $prefix . $n; }
            mysql_query('SELECT * FROM ' . table('user'));
            """
        )
        assert gen(result, "SELECT * FROM unp_user")


class TestSources:
    def test_cookie_direct(self, app):
        result = app(
            "<?php $c = $_COOKIE['lang']; mysql_query(\"SELECT * FROM t WHERE l='$c'\");"
        )
        assert DIRECT in labels_in_query(result)

    def test_session_indirect(self, app):
        result = app(
            "<?php $u = $_SESSION['user']; mysql_query(\"SELECT * FROM t WHERE u='$u'\");"
        )
        assert INDIRECT in labels_in_query(result)

    def test_fetch_result_indirect(self, app):
        result = app(
            """\
            <?php
            $res = mysql_query('SELECT name FROM users');
            $row = mysql_fetch_array($res);
            $name = $row['name'];
            mysql_query("SELECT * FROM log WHERE name='$name'");
            """
        )
        assert INDIRECT in labels_in_query(result, index=1)

    def test_fetch_method_indirect(self, app):
        result = app(
            """\
            <?php
            $row = $DB->fetch_array($r);
            mysql_query("SELECT * FROM t WHERE x='{$row['a']}'");
            """
        )
        assert INDIRECT in labels_in_query(result)

    def test_sanitized_input_no_quote_break(self, app):
        result = app(
            """\
            <?php
            $x = addslashes($_GET['x']);
            mysql_query("SELECT * FROM t WHERE a='$x'");
            """
        )
        assert DIRECT in labels_in_query(result)
        assert gen(result, "SELECT * FROM t WHERE a='a\\'b'")
        assert not gen(result, "SELECT * FROM t WHERE a='a'b'")


class TestIncludes:
    def test_static_include(self, app):
        result = app(
            "<?php include 'lib.php'; mysql_query($query);",
            **{"lib.php": "<?php $query = 'SELECT 1 FROM t';"},
        )
        assert gen(result, "SELECT 1 FROM t")

    def test_dynamic_include_resolved_by_layout(self, app):
        result = app(
            """\
            <?php
            $choice = $_GET['lang'] == 'en' ? 'en' : 'de';
            include('lang/lan_' . $choice . '.php');
            mysql_query($greeting_query);
            """,
            **{
                "lang__lan_en.php": "<?php $greeting_query = 'SELECT en FROM t';",
                "lang__lan_de.php": "<?php $greeting_query = 'SELECT de FROM t';",
                "lang__other.php": "<?php $greeting_query = 'SELECT xx FROM t';",
            },
        )
        assert gen(result, "SELECT en FROM t")
        assert gen(result, "SELECT de FROM t")
        assert not gen(result, "SELECT xx FROM t")

    def test_include_once(self, app):
        result = app(
            """\
            <?php
            include_once 'lib.php';
            include_once 'lib.php';
            mysql_query('SELECT ' . $counter . ' FROM t');
            """,
            **{"lib.php": "<?php $counter = $counter . 'i';"},
        )
        assert gen(result, "SELECT i FROM t")
        assert not gen(result, "SELECT ii FROM t")

    def test_cross_file_taint(self, app):
        """The e107-style bug: cookie read in one file, query in another."""
        result = app(
            """\
            <?php
            include 'common.php';
            mysql_query("SELECT * FROM users WHERE cookie='$cookie_val'");
            """,
            **{"common.php": "<?php $cookie_val = $_COOKIE['uid'];"},
        )
        assert DIRECT in labels_in_query(result)


class TestArrays:
    def test_array_literal_key_flow(self, app):
        result = app(
            """\
            <?php
            $cfg = array('table' => 'users', 'other' => 'junk');
            mysql_query('SELECT * FROM ' . $cfg['table']);
            """
        )
        assert gen(result, "SELECT * FROM users")
        assert not gen(result, "SELECT * FROM junk")

    def test_array_write_then_read(self, app):
        result = app(
            """\
            <?php
            $a['t'] = 'news';
            mysql_query('SELECT * FROM ' . $a['t']);
            """
        )
        assert gen(result, "SELECT * FROM news")

    def test_unknown_key_joins_default(self, app):
        result = app(
            """\
            <?php
            $a[$k] = 'x';
            mysql_query('SELECT ' . $a[$j] . ' FROM t');
            """
        )
        assert gen(result, "SELECT x FROM t")


class TestParseErrors:
    def test_unparseable_file_reported(self, app, tmp_path):
        result = app("<?php $x = ;")
        assert result.parse_errors
        assert not result.hotspots
