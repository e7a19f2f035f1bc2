"""Edge-case tests for the string-taint interpreter: constructs beyond
the core flows covered in test_stringtaint.py."""

import textwrap

import pytest

from repro.analysis.stringtaint import StringTaintAnalysis
from repro.lang.grammar import DIRECT, INDIRECT

from ..lang.reference import ref_generates


@pytest.fixture
def app(tmp_path):
    def run(entry_source, **other_files):
        (tmp_path / "page.php").write_text(textwrap.dedent(entry_source))
        for name, source in other_files.items():
            path = tmp_path / name.replace("__", "/")
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source))
        return StringTaintAnalysis(tmp_path).analyze_file("page.php")

    return run


def gen(result, text, index=0):
    return ref_generates(result.grammar, result.hotspots[index].query.nt, text)


class TestSwitchSemantics:
    def test_fallthrough_executes_next_case(self, app):
        result = app(
            """\
            <?php
            switch ($c) {
                case 1: $x = 'a';
                case 2: $x = $x . 'b'; break;
                default: $x = 'z';
            }
            mysql_query("SELECT '$x' FROM t");
            """
        )
        assert gen(result, "SELECT 'ab' FROM t")  # case 1 falls into case 2
        assert gen(result, "SELECT 'b' FROM t")   # entering at case 2
        assert gen(result, "SELECT 'z' FROM t")

    def test_no_default_keeps_pre_state(self, app):
        result = app(
            """\
            <?php
            $x = 'pre';
            switch ($c) { case 1: $x = 'one'; break; }
            mysql_query("SELECT '$x' FROM t");
            """
        )
        assert gen(result, "SELECT 'pre' FROM t")
        assert gen(result, "SELECT 'one' FROM t")

    def test_exit_in_case(self, app):
        result = app(
            """\
            <?php
            switch ($c) {
                case 'bad': exit;
                default: $x = 'ok';
            }
            mysql_query("SELECT '$x' FROM t");
            """
        )
        assert gen(result, "SELECT 'ok' FROM t")


class TestLoops:
    def test_do_while_body_executes(self, app):
        result = app(
            """\
            <?php
            $q = 'SELECT 1';
            do { $q = $q . ' FROM t'; } while ($c);
            mysql_query($q);
            """
        )
        assert gen(result, "SELECT 1 FROM t")
        assert gen(result, "SELECT 1 FROM t FROM t")

    def test_for_loop_step(self, app):
        result = app(
            """\
            <?php
            $s = '';
            for ($i = 0; $i < 3; $i++) { $s = $s . 'x'; }
            mysql_query("SELECT '$s' FROM t");
            """
        )
        assert gen(result, "SELECT '' FROM t")
        assert gen(result, "SELECT 'xxx' FROM t")

    def test_nested_loops(self, app):
        result = app(
            """\
            <?php
            $s = 'a';
            while ($i) { while ($j) { $s = $s . 'b'; } $s = $s . 'c'; }
            mysql_query("SELECT '$s' FROM t");
            """
        )
        assert gen(result, "SELECT 'a' FROM t")
        assert gen(result, "SELECT 'abc' FROM t")
        assert gen(result, "SELECT 'abbcbc' FROM t")

    def test_loop_new_variable(self, app):
        result = app(
            """\
            <?php
            while ($c) { $inside = 'v'; }
            mysql_query('SELECT ' . $inside . ' FROM t');
            """
        )
        assert gen(result, "SELECT v FROM t")
        assert gen(result, "SELECT  FROM t")  # zero-iteration path


class TestObjects:
    def test_property_write_and_read(self, app):
        result = app(
            """\
            <?php
            class Box { var $v; }
            $b = new Box();
            $b->v = 'news';
            mysql_query('SELECT * FROM ' . $b->v);
            """
        )
        assert gen(result, "SELECT * FROM news")

    def test_constructor_initializes(self, app):
        result = app(
            """\
            <?php
            class T {
                var $name;
                function T($n) { $this->name = $n; }
            }
            $t = new T('users');
            mysql_query('SELECT * FROM ' . $t->name);
            """
        )
        assert gen(result, "SELECT * FROM users")

    def test_method_uses_this(self, app):
        result = app(
            """\
            <?php
            class Q {
                var $prefix = 'unp_';
                function table($n) { return $this->prefix . $n; }
            }
            $q = new Q();
            mysql_query('SELECT * FROM ' . $q->table('user'));
            """
        )
        assert gen(result, "SELECT * FROM unp_user")

    def test_inherited_method(self, app):
        result = app(
            """\
            <?php
            class Base { function name() { return 'base'; } }
            class Child extends Base { }
            $c = new Child();
            mysql_query('SELECT * FROM ' . $c->name());
            """
        )
        assert gen(result, "SELECT * FROM base")

    def test_static_call(self, app):
        result = app(
            """\
            <?php
            class Util { function tbl() { return 'log'; } }
            mysql_query('SELECT * FROM ' . Util::tbl());
            """
        )
        assert gen(result, "SELECT * FROM log")

    def test_unknown_method_carries_taint(self, app):
        result = app(
            """\
            <?php
            $v = $mystery->transform($_GET['x']);
            mysql_query("SELECT * FROM t WHERE a='$v'");
            """
        )
        grammar = result.grammar
        labels = set()
        for nt in grammar.reachable(result.hotspots[0].query.nt):
            labels |= grammar.labels.get(nt, set())
        assert DIRECT in labels


class TestExpressions:
    def test_cast_string(self, app):
        result = app("<?php $x = (string)'abc'; mysql_query('SELECT ' . $x);")
        assert gen(result, "SELECT abc")

    def test_cast_bool(self, app):
        result = app("<?php $x = (bool)$_GET['a']; mysql_query(\"SELECT $x\");")
        assert gen(result, "SELECT 1")
        assert gen(result, "SELECT ")

    def test_suppress_transparent(self, app):
        result = app("<?php @mysql_query('SELECT 5 FROM t');")
        assert gen(result, "SELECT 5 FROM t")

    def test_arithmetic_is_numeric(self, app):
        result = app("<?php $n = $_GET['a'] + 1; mysql_query(\"SELECT $n\");")
        assert gen(result, "SELECT 42")
        assert not gen(result, "SELECT x")

    def test_string_index_read(self, app):
        result = app(
            "<?php $s = 'abc'; $c = $s[0]; mysql_query('SELECT ' . $c);"
        )
        # char reads over-approximate to the value's alphabet
        assert gen(result, "SELECT a")

    def test_logical_keywords_value(self, app):
        result = app("<?php $x = $a and $b; mysql_query(\"SELECT '$x'\");")
        assert result.hotspots

    def test_empty_refinement(self, app):
        result = app(
            """\
            <?php
            $x = $_GET['x'];
            mysql_query("SELECT " . strlen($x));
            """
        )
        assert gen(result, "SELECT 3")


class TestIndirectSources:
    def test_mysql_result_scalar(self, app):
        result = app(
            """\
            <?php
            $v = mysql_result($r, 0);
            mysql_query("SELECT * FROM t WHERE a='$v'");
            """
        )
        labels = set()
        for nt in result.grammar.reachable(result.hotspots[0].query.nt):
            labels |= result.grammar.labels.get(nt, set())
        assert INDIRECT in labels

    def test_fetch_object_treated_as_indirect(self, app):
        result = app(
            """\
            <?php
            $o = mysql_fetch_object($r);
            $v = $o['name'];
            mysql_query("SELECT * FROM t WHERE a='$v'");
            """
        )
        labels = set()
        for nt in result.grammar.reachable(result.hotspots[0].query.nt):
            labels |= result.grammar.labels.get(nt, set())
        assert INDIRECT in labels


class TestCallEdgeCases:
    def test_depth_limit_terminates(self, app):
        functions = "\n".join(
            f"function f{i}($x) {{ return f{i+1}($x . '{i}'); }}"
            for i in range(12)
        )
        result = app(
            f"""\
            <?php
            {functions}
            function f12($x) {{ return $x; }}
            mysql_query('SELECT ' . f0('a'));
            """
        )
        assert result.hotspots  # terminated, produced a hotspot

    def test_mutual_recursion(self, app):
        result = app(
            """\
            <?php
            function ping($x) { return pong($x . 'p'); }
            function pong($x) { return ping($x . 'q'); }
            mysql_query('SELECT ' . ping('a'));
            """
        )
        assert result.hotspots

    def test_function_defined_after_use_site(self, app):
        result = app(
            """\
            <?php
            mysql_query('SELECT * FROM ' . tbl());
            function tbl() { return 'users'; }
            """
        )
        assert gen(result, "SELECT * FROM users")

    def test_byref_param_value_semantics(self, app):
        result = app(
            """\
            <?php
            function setit(&$x) { $x = 'set'; }
            $v = 'orig';
            setit($v);
            mysql_query("SELECT '$v' FROM t");
            """
        )
        # references are only approximated (paper §4): the original value
        # must at least survive
        assert gen(result, "SELECT 'orig' FROM t")
