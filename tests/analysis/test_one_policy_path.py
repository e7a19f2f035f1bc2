"""Every run carries a policy config that holds ``sql`` (DESIGN §5q).

* a config that omits ``sql`` is the config that lists it: one digest,
  and its SARIF log declares every rule its results use;
* a run without ``--policy-config`` is a run with ``policies: [sql]``:
  the same ``--json`` and ``--sarif`` bytes and the same disk-cache
  page entries.
"""

import json
from pathlib import Path

import pytest

from repro.analysis.cli import main
from repro.analysis.policies import config_from_dict
from repro.corpus import build_app


@pytest.fixture(scope="module")
def app_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("policy-path-app")
    build_app(root, "eve_activity_tracker")
    return root / "eve_activity_tracker"


def run(capsys, root, tmp_path, name, *extra):
    """``(stdout, SARIF text)`` of one in-process ``sqlciv --json`` run."""
    sarif = tmp_path / f"{name}.sarif"
    main([str(root), "--json", "--jobs", "1", "--sarif", str(sarif), *extra])
    return capsys.readouterr().out, sarif.read_text()


def write_config(tmp_path, policies):
    path = tmp_path / f"{'-'.join(policies)}.yaml"
    path.write_text(f"policies: [{', '.join(policies)}]\n")
    return str(path)


class TestSqlIsInEveryConfig:
    def test_omitting_sql_is_listing_it(self):
        shell_only = config_from_dict({"policies": ["shell"]})
        both = config_from_dict({"policies": ["sql", "shell"]})
        assert shell_only == both
        assert shell_only.enabled == ("sql", "shell")
        assert shell_only.digest() == both.digest()

    def test_results_use_only_declared_rules(self, capsys, app_root, tmp_path):
        config = write_config(tmp_path, ["shell"])
        _, text = run(capsys, app_root, tmp_path, "shell", "--policy-config", config)
        sarif = json.loads(text)
        declared = sarif["runs"][0]["tool"]["driver"]["rules"]
        results = sarif["runs"][0]["results"]
        assert any(rule["id"] == "odd-quotes" for rule in declared)
        assert results, "eve_activity_tracker has unsafe SQL findings"
        for result in results:
            index = result["ruleIndex"]
            assert 0 <= index < len(declared), result["ruleId"]
            assert declared[index]["id"] == result["ruleId"]


class TestDefaultRunIsTheSqlConfig:
    def test_same_bytes_and_cache_entries(self, capsys, app_root, tmp_path):
        cache = tmp_path / "cache"
        default_json, default_sarif = run(
            capsys, app_root, tmp_path, "default", "--cache-dir", str(cache)
        )
        pages = sorted(Path(cache, "page").iterdir())
        assert pages
        config = write_config(tmp_path, ["sql"])
        sql_json, sql_sarif = run(
            capsys, app_root, tmp_path, "sql",
            "--cache-dir", str(cache), "--policy-config", config,
        )
        assert sql_json == default_json
        assert sql_sarif == default_sarif
        # the config run found every page entry the default run stored
        assert sorted(Path(cache, "page").iterdir()) == pages
