"""Tests for finding provenance: the taint chain behind every verdict."""

import textwrap

import pytest

from repro.analysis.analyzer import analyze_page, run_pages
from repro.analysis.provenance import Provenance, trace_provenance
from repro.lang.grammar import DIRECT, Grammar, Lit
from repro.obs.metrics import PERF


@pytest.fixture
def check(tmp_path):
    def run(source, page="page.php"):
        (tmp_path / page).write_text(textwrap.dedent(source))
        reports, _ = analyze_page(tmp_path, page)
        return reports

    return run


class TestSourceSites:
    def test_violation_carries_source_site(self, check):
        (report,) = check(
            """\
            <?php
            $id = $_GET['id'];
            mysql_query("SELECT * FROM t WHERE id='$id'");
            """
        )
        (finding,) = report.violations
        provenance = finding.provenance
        assert provenance is not None
        assert provenance.check == finding.check
        sources = provenance.sources
        assert len(sources) >= 1
        assert sources[0]["kind"] == "source"
        assert sources[0]["name"] == "_GET"
        assert sources[0]["label"] == DIRECT
        assert sources[0]["file"].endswith("page.php")
        assert sources[0]["line"] == 2

    def test_every_nonsafe_finding_has_a_source(self, check):
        reports = check(
            """\
            <?php
            $a = $_POST['a'];
            $b = $_COOKIE['b'];
            mysql_query("SELECT * FROM t WHERE a='$a' AND b='$b'");
            """
        )
        for report in reports:
            for finding in report.findings:
                if finding.safe:
                    continue
                assert finding.provenance is not None
                assert finding.provenance.sources

    def test_state_split_nonterminal_still_reaches_source(self, check):
        """A verdict on a product-construction copy of the source (an
        FST-image or intersection state split, e.g. ``_GET#5/0,0``) must
        still trace back to the source site via the absorb edges."""
        (report,) = check(
            """\
            <?php
            $id = $_GET['id'];
            $id = str_replace("x", "y", $id);
            mysql_query("SELECT * FROM t WHERE id='$id'");
            """
        )
        (finding,) = report.violations
        provenance = finding.provenance
        assert provenance.sources and provenance.sources[0]["name"] == "_GET"
        assert any(e["kind"] == "sanitizer" for e in provenance.steps)

    def test_render_and_as_dict_include_provenance(self, check):
        (report,) = check(
            """\
            <?php
            $id = $_GET['id'];
            mysql_query("SELECT * FROM t WHERE id='$id'");
            """
        )
        (finding,) = report.violations
        assert "source: _GET" in finding.render()
        data = finding.as_dict()
        assert data["provenance"]["sources"][0]["name"] == "_GET"
        # round-trip through the JSON form
        again = Provenance.from_dict(data["provenance"])
        assert again.as_dict() == data["provenance"]


class TestOperationSteps:
    def test_sanitizer_step_recorded(self, check):
        """An FST image shows up as a ``sanitizer`` step carrying the PHP
        call name and before/after samples."""
        (report,) = check(
            """\
            <?php
            $id = $_GET['id'];
            $id = addslashes($id);
            mysql_query("SELECT * FROM t WHERE id='$id'");
            """
        )
        steps = [
            event
            for finding in report.findings
            if finding.provenance is not None
            for event in finding.provenance.steps
        ]
        sanitizers = [e for e in steps if e["kind"] == "sanitizer"]
        assert sanitizers, f"no sanitizer step in {steps}"
        assert sanitizers[0]["name"] == "addslashes"
        assert sanitizers[0]["line"] == 3

    def test_sanitizer_after_is_the_output_on_before(self):
        """``after`` is the sanitizer's own output on ``before``: the
        shortest value here is a lone quote, which addslashes escapes."""
        from repro.analysis.absdom import GrammarBuilder
        from repro.php.builtins import _addslashes_fst

        builder = GrammarBuilder()
        value = builder.concat(
            builder.literal("'"), builder.any_string(DIRECT, hint="_GET")
        )
        escaped = builder.image(value, _addslashes_fst(), "addslashes")
        event = builder.grammar.origins[escaped.nt]
        assert event["kind"] == "sanitizer"
        assert (event["before"], event["after"]) == ("'", "\\'")

    def test_flow_through_unknown_call(self, check):
        """Taint carried through an unmodeled call is recorded as a
        ``flow`` step naming the call."""
        (report,) = check(
            """\
            <?php
            $id = badfunc($_GET['id']);
            mysql_query("SELECT * FROM t WHERE id='$id'");
            """
        )
        (finding,) = report.violations
        provenance = finding.provenance
        steps = provenance.steps
        flows = [e for e in steps if e["kind"] == "flow"]
        assert any(e["name"] == "call.badfunc" for e in flows), steps
        # the prov_inputs edge bridges the fresh Σ* back to the source
        assert provenance.sources and provenance.sources[0]["name"] == "_GET"

    def test_steps_read_source_to_sink(self, check):
        """With sanitize-after-flow, the flow step precedes the sanitizer
        step (source-side first)."""
        (report,) = check(
            """\
            <?php
            $id = badfunc($_GET['id']);
            $id = addslashes($id);
            mysql_query("SELECT * FROM t WHERE id='$id'");
            """
        )
        kinds = [
            e["kind"]
            for finding in report.findings
            if finding.provenance is not None
            for e in finding.provenance.steps
        ]
        assert "flow" in kinds and "sanitizer" in kinds, kinds
        assert kinds.index("flow") < kinds.index("sanitizer")


class TestMemoReplayRebinding:
    def test_cached_verdict_rebinds_to_hitting_page(self, tmp_path):
        """Two structurally identical pages: the second page's verdict is
        replayed from the memo, but its provenance must name the second
        page's own file."""
        source = textwrap.dedent(
            """\
            <?php
            $id = $_GET['id'];
            mysql_query("SELECT * FROM t WHERE id='$id'");
            """
        )
        (tmp_path / "first.php").write_text(source)
        (tmp_path / "second.php").write_text(source)
        PERF.reset()
        results = run_pages(
            tmp_path, [tmp_path / "first.php", tmp_path / "second.php"], jobs=1
        )
        assert PERF.snapshot()["counters"].get("policy.verdict_cache.hits", 0) >= 1
        for result, page in zip(results, ("first.php", "second.php")):
            (report,) = result.reports
            (finding,) = report.violations
            assert finding.provenance is not None
            (source_event,) = finding.provenance.sources
            assert source_event["file"].endswith(page)

    def test_no_finding_nts_leak_on_reports(self, check):
        """The NT side-channel is consumed: reports stay free of live
        grammar objects and pickle cleanly."""
        import pickle

        (report,) = check(
            """\
            <?php
            $id = $_GET['id'];
            mysql_query("SELECT * FROM t WHERE id='$id'");
            """
        )
        assert not hasattr(report, "_finding_nts")
        pickle.loads(pickle.dumps(report))


class TestTraceWalk:
    def test_prov_inputs_bridge_structural_disconnects(self):
        """trace_provenance follows ``prov_inputs`` edges where the
        productions cannot show the operand."""
        grammar = Grammar()
        sink = grammar.fresh("sink")
        operand = grammar.fresh("operand")
        grammar.add(sink, (Lit("x"),))
        grammar.add(operand, (Lit("y"),))
        grammar.set_origin(
            operand, {"kind": "source", "name": "_GET", "label": DIRECT,
                      "file": "a.php", "line": 1},
        )
        grammar.set_origin(
            sink, {"kind": "sanitizer", "name": "addslashes",
                   "file": "a.php", "line": 2},
            inputs=(operand,),
        )
        provenance = trace_provenance(grammar, sink, check="odd-quotes")
        assert [e["name"] for e in provenance.sources] == ["_GET"]
        assert [e["name"] for e in provenance.steps] == ["addslashes"]
        assert not provenance.truncated

    def test_first_origin_wins(self):
        grammar = Grammar()
        nt = grammar.fresh("x")
        grammar.set_origin(nt, {"kind": "source", "name": "_GET"})
        grammar.set_origin(nt, {"kind": "source", "name": "_POST"})
        assert grammar.origins[nt]["name"] == "_GET"

    def test_truncation_keeps_source_side(self):
        """Chains longer than MAX_STEPS keep the steps nearest the source
        and mark themselves truncated."""
        from repro.analysis.provenance import MAX_STEPS

        grammar = Grammar()
        chain = [grammar.fresh(f"n{i}") for i in range(MAX_STEPS + 5)]
        grammar.set_origin(
            chain[0], {"kind": "source", "name": "_GET", "label": DIRECT},
        )
        for i in range(1, len(chain)):
            grammar.add(chain[i], (chain[i - 1],))
            grammar.set_origin(chain[i], {"kind": "flow", "name": f"f{i}"})
        provenance = trace_provenance(grammar, chain[-1])
        assert provenance.truncated
        assert len(provenance.steps) == MAX_STEPS
        # source-side first: the earliest operations survive the cut
        assert provenance.steps[0]["name"] == "f1"

    def test_origins_do_not_perturb_fingerprint(self):
        """Provenance side-tables must be invisible to content addressing
        (DESIGN §6): same structure, different origins, same fingerprint."""
        plain = Grammar()
        a = plain.fresh("a")
        plain.add(a, (Lit("q"),))
        annotated = Grammar()
        b = annotated.fresh("b")
        annotated.add(b, (Lit("q"),))
        annotated.set_origin(b, {"kind": "source", "name": "_GET"})
        assert plain.fingerprint(a) == annotated.fingerprint(b)
