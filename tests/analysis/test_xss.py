"""The ``xss`` sink policy on single-echo pages (paper §7 future work).

These are the cases of the removed legacy ``--xss`` entry point, run
through the policy pipeline (``PolicyConfig(enabled=("xss",))``, the
same path ``--policy-config`` takes); the verdicts, categories and
witnesses are the ones the legacy path reported.
"""

import textwrap

import pytest

from repro.analysis.analyzer import run_pages
from repro.analysis.policies import PolicyConfig

XSS_ONLY = PolicyConfig(enabled=("xss",))


@pytest.fixture
def xss(tmp_path):
    """Analyze ``page.php``; one report per echo carrying untrusted data
    (echoes of purely trusted data have no findings and are dropped)."""
    def run(source, **other_files):
        (tmp_path / "page.php").write_text(textwrap.dedent(source))
        for name, content in other_files.items():
            (tmp_path / name).write_text(textwrap.dedent(content))
        (result,) = run_pages(
            tmp_path, [tmp_path / "page.php"], jobs=1, policies=XSS_ONLY
        )
        return [
            report for report in result.reports
            if report.sink == "echo" and report.findings
        ]

    return run


class TestDetection:
    def test_raw_echo_of_get(self, xss):
        reports = xss("<?php echo 'Hello ' . $_GET['name'];")
        assert reports
        assert not reports[0].verified
        assert reports[0].violations[0].category == "direct"
        assert reports[0].violations[0].policy == "xss"

    def test_htmlspecialchars_verifies(self, xss):
        # with ENT_QUOTES everything is encoded (the default-flags case,
        # which keeps single quotes, is covered by the next test)
        reports_quotes = xss(
            "<?php echo htmlspecialchars($_GET['name'], ENT_QUOTES);"
        )
        assert all(r.verified for r in reports_quotes)

    def test_default_htmlspecialchars_single_quote_reported(self, xss):
        reports = xss("<?php echo htmlspecialchars($_GET['name']);")
        # default flags keep ' intact → attribute-context breakout risk
        assert any(not r.verified for r in reports)

    def test_intval_verifies(self, xss):
        reports = xss("<?php echo 'id=' . intval($_GET['id']);")
        assert all(r.verified for r in reports)

    def test_constant_echo_silent(self, xss):
        reports = xss("<?php echo '<b>static</b>';")
        assert reports == []

    def test_db_data_is_indirect(self, xss):
        reports = xss(
            """\
            <?php
            $row = mysql_fetch_assoc(mysql_query('SELECT a FROM t'));
            echo $row['a'];
            """
        )
        assert reports
        assert reports[0].violations[0].category == "indirect"

    def test_interpolated_echo(self, xss):
        reports = xss('<?php $n = $_GET[\'n\']; echo "Hi $n!";')
        assert any(not r.verified for r in reports)

    def test_witness_contains_markup_char(self, xss):
        reports = xss("<?php echo $_GET['x'];")
        witness = reports[0].violations[0].witness
        assert any(c in witness for c in "<>\"'")

    def test_regex_restricted_input_verifies(self, xss):
        reports = xss(
            """\
            <?php
            $n = $_GET['n'];
            if (!preg_match('/^[a-z0-9]+$/', $n)) { exit; }
            echo "Hello $n";
            """
        )
        assert all(r.verified for r in reports)

    def test_strip_quotes_replace_verifies(self, xss):
        reports = xss(
            """\
            <?php
            $n = preg_replace('/[<>"\\']/', '', $_GET['n']);
            echo $n;
            """
        )
        assert all(r.verified for r in reports)
