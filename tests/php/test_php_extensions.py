"""Tests for PHP front-end extensions: alternative syntax, heredoc,
define() constants."""

import textwrap


from repro.analysis.stringtaint import StringTaintAnalysis
from repro.php import ast
from repro.php.parser import parse

from ..lang.reference import ref_generates


def parse_stmts(code):
    return parse(f"<?php {code}").body.statements


class TestAlternativeSyntax:
    def test_if_endif(self):
        (stmt,) = parse_stmts("if ($a): echo 1; endif;")
        assert isinstance(stmt, ast.If)
        assert isinstance(stmt.then.statements[0], ast.Echo)

    def test_if_else_endif(self):
        (stmt,) = parse_stmts("if ($a): echo 1; else: echo 2; endif;")
        assert stmt.orelse is not None

    def test_if_elseif_endif(self):
        (stmt,) = parse_stmts(
            "if ($a): echo 1; elseif ($b): echo 2; else: echo 3; endif;"
        )
        assert len(stmt.elifs) == 1
        assert stmt.orelse is not None

    def test_while_endwhile(self):
        (stmt,) = parse_stmts("while ($a): $i++; endwhile;")
        assert isinstance(stmt, ast.While)

    def test_foreach_endforeach(self):
        (stmt,) = parse_stmts("foreach ($rows as $r): echo $r; endforeach;")
        assert isinstance(stmt, ast.Foreach)

    def test_template_style_mixed_html(self):
        tree = parse(
            "<?php if ($ok): ?><b>yes</b><?php else: ?><i>no</i><?php endif; ?>"
        )
        (stmt,) = [
            s for s in tree.body.statements if isinstance(s, ast.If)
        ]
        assert any(
            isinstance(inner, ast.InlineHtml) for inner in stmt.then.statements
        )
        assert stmt.orelse is not None

    def test_ternary_colon_not_confused(self):
        (stmt,) = parse_stmts("$x = $a ? 1 : 2;")
        assert isinstance(stmt.expr.value, ast.Ternary)


class TestHeredoc:
    def test_plain_heredoc(self):
        (stmt,) = parse_stmts('$x = <<<EOT\nhello world\nEOT;\n')
        assert stmt.expr.value.value == "hello world"

    def test_heredoc_interpolation(self):
        (stmt,) = parse_stmts('$q = <<<SQL\nSELECT $col FROM t\nSQL;\n')
        assert isinstance(stmt.expr.value, ast.Interp)
        parts = stmt.expr.value.parts
        assert parts[0].value == "SELECT "
        assert isinstance(parts[1], ast.Var)

    def test_nowdoc_no_interpolation(self):
        (stmt,) = parse_stmts("$x = <<<'EOT'\nraw $notvar\nEOT;\n")
        assert stmt.expr.value.value == "raw $notvar"

    def test_multiline_body(self):
        (stmt,) = parse_stmts('$x = <<<EOT\nline1\nline2\nEOT;\n')
        assert stmt.expr.value.value == "line1\nline2"

    def test_empty_heredoc(self):
        (stmt,) = parse_stmts('$x = <<<EOT\nEOT;\n')
        assert stmt.expr.value.value == ""

    def test_heredoc_query_flows(self, tmp_path):
        (tmp_path / "page.php").write_text(
            textwrap.dedent(
                """\
                <?php
                $id = intval($_GET['id']);
                $q = <<<SQL
                SELECT * FROM t WHERE id=$id
                SQL;
                mysql_query($q);
                """
            )
        )
        result = StringTaintAnalysis(tmp_path).analyze_file("page.php")
        assert ref_generates(result.grammar, 
            result.hotspots[0].query.nt, "SELECT * FROM t WHERE id=42"
        )


class TestDefineConstants:
    def run(self, tmp_path, code):
        (tmp_path / "page.php").write_text(f"<?php {code}")
        return StringTaintAnalysis(tmp_path).analyze_file("page.php")

    def test_define_flows_into_query(self, tmp_path):
        result = self.run(
            tmp_path,
            "define('PREFIX', 'unp_'); "
            "mysql_query('SELECT * FROM ' . PREFIX . 'user');",
        )
        assert ref_generates(result.grammar, 
            result.hotspots[0].query.nt, "SELECT * FROM unp_user"
        )

    def test_undefined_constant_is_its_name(self, tmp_path):
        result = self.run(tmp_path, "mysql_query('SELECT ' . MISSING . ' FROM t');")
        assert ref_generates(result.grammar, 
            result.hotspots[0].query.nt, "SELECT MISSING FROM t"
        )

    def test_constant_function(self, tmp_path):
        result = self.run(
            tmp_path,
            "define('T', 'news'); mysql_query('SELECT * FROM ' . constant('T'));",
        )
        assert ref_generates(result.grammar, 
            result.hotspots[0].query.nt, "SELECT * FROM news"
        )

    def test_defined_is_boolean(self, tmp_path):
        result = self.run(
            tmp_path,
            "if (defined('X')) { mysql_query('SELECT 1 FROM a'); }",
        )
        assert len(result.hotspots) == 1

    def test_tainted_constant(self, tmp_path):
        result = self.run(
            tmp_path,
            "define('EVIL', $_GET['x']); "
            "mysql_query(\"SELECT * FROM t WHERE a='\" . EVIL . \"'\");",
        )
        grammar = result.grammar
        labels = set()
        for nt in grammar.reachable(result.hotspots[0].query.nt):
            labels |= grammar.labels.get(nt, set())
        assert "direct" in labels
