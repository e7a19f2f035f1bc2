"""Regenerate the paper's output-bearing figures.

Figures 1 and 3 are architecture diagrams; the rest have observable
content that this module reproduces:

* Figure 2 — the Utopia News Pro vulnerability (analysis + attack witness)
* Figure 4 — the grammar productions extracted from Figure 2's code
* Figure 5 — the SSA/dataflow grammar for the contrived branch program
* Figure 6 — the str_replace("''", "'") transducer
* Figure 7 — taint propagation through CFG–FSA intersection (demonstrated)
* Figure 8 — explode() semantics
* Figure 9 — the type-conversion false positive (reproduced as an FP)
* Figure 10 — the indirect report on postnews.php
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.analysis.analyzer import analyze_page
from repro.analysis.stringtaint import StringTaintAnalysis
from repro.lang.earley import char_membership, char_token_grammar
from repro.lang.grammar import DIRECT
from repro.sql.confinement import check_confinement

FIGURE2_CODE = """\
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
$getuser = $DB->query("SELECT * FROM `unp_user` "
    . "WHERE userid='$userid'");
if (!$DB->is_single_row($getuser))
{
    unp_msg('You entered an invalid user ID.');
    exit;
}
"""

ATTACK_PAYLOAD = "1'; DROP TABLE unp_user; --"
ATTACK_QUERY = (
    "SELECT * FROM `unp_user` WHERE userid='1'; DROP TABLE unp_user; --'"
)


def _derives(grammar, root, text: str) -> bool:
    """Does ``root`` derive ``text``?  (The Earley membership test.)"""
    return char_membership(char_token_grammar(grammar, root), text)


def _figure2_workspace() -> Path:
    workspace = Path(tempfile.mkdtemp(prefix="fig2-"))
    (workspace / "useredit.php").write_text(FIGURE2_CODE)
    return workspace


def figure2() -> dict:
    """Analyze Figure 2's code; returns the verdict and attack evidence."""
    workspace = _figure2_workspace()
    reports, analysis = analyze_page(workspace, "useredit.php")
    result = analysis.analyze_file  # noqa: F841 (driver kept alive for grammar)
    report = reports[0]
    grammar = analysis.builder.grammar
    hotspot = analysis.hotspots[0]
    attack_derivable = _derives(grammar, hotspot.query.nt, ATTACK_QUERY)
    payload_span = (
        ATTACK_QUERY.index(ATTACK_PAYLOAD),
        ATTACK_QUERY.index(ATTACK_PAYLOAD) + len(ATTACK_PAYLOAD),
    )
    confinement = check_confinement(ATTACK_QUERY, *payload_span)
    return {
        "verified": report.verified,
        "violations": [f.check for f in report.violations],
        "attack_query_derivable": attack_derivable,
        "attack_confined": confinement.confined,
        "witness": report.violations[0].witness if report.violations else "",
    }


def figure4() -> dict:
    """The annotated grammar for Figure 2's query (cf. the paper's listing:
    ``userid → GETuid ∩ Σ*[0-9]Σ*``, ``direct = {GETuid}``)."""
    workspace = _figure2_workspace()
    analysis = StringTaintAnalysis(workspace)
    result = analysis.analyze_file("useredit.php")
    hotspot = result.hotspots[0]
    scope = result.grammar.subgrammar(hotspot.query.nt)
    labeled = scope.labeled_nonterminals(DIRECT)
    return {
        "productions": scope.num_productions(),
        "nonterminals": len(scope.productions),
        "direct_labeled": len(labeled),
        "samples": scope.shortest_strings(hotspot.query.nt, limit=4),
        "dump": scope.dump(limit=30),
    }


FIGURE5_CODE = """\
<?php
$X = $UNTRUSTED;
if ($A) {
    $X = $X . "s";
} else {
    $X = $X . "s";
}
$Z = $X;
mysql_query($Z);
"""


def figure5() -> dict:
    """The grammar mirrors dataflow: φ over the two branch variants."""
    workspace = Path(tempfile.mkdtemp(prefix="fig5-"))
    (workspace / "page.php").write_text(FIGURE5_CODE)
    analysis = StringTaintAnalysis(workspace)
    result = analysis.analyze_file("page.php")
    hotspot = result.hotspots[0]
    scope = result.grammar.subgrammar(hotspot.query.nt)
    return {
        "dump": scope.dump(limit=20),
        "derives_s": _derives(result.grammar, hotspot.query.nt, "s"),
        "derives_ss": _derives(result.grammar, hotspot.query.nt, "ss"),
    }


def figure6() -> dict:
    """The FST for str_replace("''", "'", $B)."""
    from repro.lang.fst import FST

    fst = FST.replace_string("''", "'")
    cases = {text: fst.apply_once(text) for text in ("A''B", "''''", "'", "A'B")}
    return {"states": fst.num_states, "cases": cases}


def figure8() -> dict:
    """explode() per its Figure 8 semantics, at the language level."""
    from repro.analysis.absdom import GrammarBuilder
    from repro.php import builtins
    from repro.php.ast import Literal, Var

    builder = GrammarBuilder()
    subject = builder.literal("a,b,c")
    pieces = builtins.model_call(
        "explode",
        builder,
        [builder.literal(","), subject],
        [Literal(value=","), Var(name="s")],
    )
    piece = builder.force(pieces.default)
    return {
        "derives": {
            text: _derives(builder.grammar, piece.nt, text)
            for text in ("a", "b", "c", "a,b")
        }
    }


def figures_9_and_10(corpus_root: str | Path) -> dict:
    """The Figure 9 false positive and Figure 10 indirect report, as they
    fall out of analyzing the corpus' Utopia News Pro."""
    root = Path(corpus_root) / "utopia_news_pro"
    fig9_reports, _ = analyze_page(root, "shownews.php")
    fig10_reports, _ = analyze_page(root, "postnews.php")
    fig9_direct = [
        f for r in fig9_reports for f in r.violations if f.category == "direct"
    ]
    fig10_indirect = [
        f for r in fig10_reports for f in r.violations if f.category == "indirect"
    ]
    return {
        "figure9_false_positive_reported": bool(fig9_direct),
        "figure10_indirect_reported": bool(fig10_indirect),
    }
