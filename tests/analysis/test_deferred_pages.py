"""Deferred images on whole pages: a chain of ``str_replace`` calls
whose images exceed the widening threshold, with the chain's result
read five ways — as a query, as echoed output with an XSS finding, as
an include path, through ``strrev``, and never.  Every page's document
(and SARIF log) must be byte-identical to a run that never defers, and
each run must force exactly the deferred images its readers need.
"""

import json

import pytest

from repro.analysis import absdom
from repro.analysis.analyzer import run_pages
from repro.analysis.policies import PolicyConfig
from repro.analysis.policies.registry import REGISTRY
from repro.analysis.policy import VERDICT_CACHE
from repro.analysis.reports import json_document
from repro.analysis.sarif import render_sarif
from repro.lang.image import IMAGE_CACHE, fst_image
from repro.obs.metrics import PERF

SMILEYS = [
    (":D", "biggrin"), (";)", "wink"), (":P", "tongue"), (":o", "surprised"),
    (":roll:", "rolleyes"), (":cry:", "cry"), (":evil:", "evil"),
]

#: seven replacements: the fifth image and the seventh are deferred, the
#: sixth widens the fifth, and ``$v`` is the seventh's alias
CHAIN = "$t = 'Hello ' . $_GET['name'];\n" + "".join(
    f"$t = str_replace('{code}', "
    f"'<img src=\"icons/{name}.gif\" alt=\"{name}\" />', $t);\n"
    for code, name in SMILEYS
) + "$v = $t;\n"

DEFERRED = 2

#: page → (code after the chain, images forced with the SQL policy
#: alone, images forced with every policy).  A hotspot forces both
#: images: the seventh through productions, the fifth through the
#: provenance edge of the sixth's widening.  An include path or strrev
#: forces only the image its value derives from, the seventh.
PAGES = {
    "query.php": (
        "mysql_query(\"SELECT * FROM t WHERE n = '\" . $v . \"'\");\n", 2, 2
    ),
    "echoed.php": ("echo '<p>' . $v . '</p>';\n", 0, 2),
    "included.php": ("include 'inc/' . $v . '.php';\n", 1, 2),
    "reversed.php": ("$r = strrev($v);\n", 1, 1),
    "unread.php": ("mysql_query('SELECT 1');\n", 0, 0),
}


@pytest.fixture(scope="module")
def app(tmp_path_factory):
    root = tmp_path_factory.mktemp("deferred") / "app"
    root.mkdir()
    for name, (body, _, _) in PAGES.items():
        (root / name).write_text("<?php\n" + CHAIN + body)
    return root


def _never_defer(grammar, root, fst, defer_above=None):
    return fst_image(grammar, root, fst)


def _run(root, page, config, defer):
    """One cold, serial, audited run of ``page``: the document, the SARIF
    log and the deferral counters."""
    VERDICT_CACHE.clear()
    IMAGE_CACHE.clear()
    before = PERF.snapshot()["counters"]
    with pytest.MonkeyPatch.context() as patch:
        if not defer:
            patch.setattr(absdom, "fst_image", _never_defer)
        results = run_pages(
            root, [root / page], audit=True, jobs=1, policies=config
        )
    after = PERF.snapshot()["counters"]
    counts = {
        name: after.get(name, 0) - before.get(name, 0)
        for name in ("image.deferred", "image.forced")
    }
    document = json.dumps(json_document(root, results), indent=2)
    sarif = render_sarif(root, results, policies=config)
    return document, sarif, counts


@pytest.mark.parametrize("page", sorted(PAGES))
@pytest.mark.parametrize("policies", ["sql", "all"])
def test_document_matches_a_run_that_never_defers(app, page, policies):
    config = None if policies == "sql" else PolicyConfig(enabled=tuple(REGISTRY))
    document, sarif, counts = _run(app, page, config, defer=True)
    eager_document, eager_sarif, eager_counts = _run(app, page, config, defer=False)
    assert document == eager_document
    assert sarif == eager_sarif
    assert eager_counts == {"image.deferred": 0, "image.forced": 0}
    _, forced_sql, forced_all = PAGES[page]
    assert counts == {
        "image.deferred": DEFERRED,
        "image.forced": forced_sql if policies == "sql" else forced_all,
    }


def test_echoed_chain_has_an_xss_finding(app):
    config = PolicyConfig(enabled=tuple(REGISTRY))
    document, _, _ = _run(app, "echoed.php", config, defer=True)
    hotspots = [h for p in json.loads(document)["pages"] for h in p["hotspots"]]
    findings = [
        finding
        for h in hotspots if h["sink"] == "echo"
        for finding in h["findings"] if not finding["safe"]
    ]
    assert findings, hotspots
    # the finding is about the forced alias, and its provenance shows
    # the sanitizer step with the sample taken when it was forced
    steps = findings[0]["provenance"]["steps"]
    assert any(step["kind"] == "sanitizer" and step["after"] for step in steps)
