"""Tests for the ``--policy-config`` YAML schema and its parser.

Every schema violation must surface as the typed
:class:`~repro.analysis.policies.PolicyConfigError` (the CLI and CI
smoke job key off that), the in-tree mini-YAML parser must read the
whole schema exactly as PyYAML would, and the config digest must be
stable — it salts the disk-cache page key.
"""

from pathlib import Path

import pytest

from repro.analysis.policies import (
    DEFAULT_CONFIG,
    PolicyConfig,
    PolicyConfigError,
    config_from_dict,
    load_policy_config,
    parse_policy_yaml,
)
from repro.analysis.policies.config import _mini_yaml

REPO_ROOT = Path(__file__).resolve().parents[2]

VALID = """\
policies: [sql, shell, path]
sinks:
  shell:
    functions:
      run_command: 0
sources:
  _ENV: direct
"""

COMMENTED = "# header\npolicies: [sql]  # trailing\n\nsources:\n  X: direct\n"

TABBED = "policies:\n\t- sql\n"

#: every config text these tests read
CONFIG_TEXTS = {
    "valid": VALID,
    "commented": COMMENTED,
    "example": (REPO_ROOT / "examples" / "policies.yaml").read_text(),
}


class TestValidConfigs:
    def test_default_is_sql_only(self):
        assert DEFAULT_CONFIG.enabled == ("sql",)
        assert DEFAULT_CONFIG.extra_sinks == ()

    def test_full_round_trip(self, tmp_path):
        path = tmp_path / "p.yaml"
        path.write_text(VALID)
        config = load_policy_config(path)
        assert config.enabled == ("sql", "shell", "path")
        assert ("shell", "run_command", 0) in config.extra_sinks
        assert ("_ENV", "direct") in config.extra_sources
        assert ("run_command", (("shell", 0),)) in (
            config.function_sink_table().items()
        )

    def test_policies_normalized_to_registry_order(self):
        config = config_from_dict({"policies": ["path", "sql", "shell"]})
        assert config.enabled == ("sql", "shell", "path")

    def test_duplicates_collapse(self):
        config = config_from_dict({"policies": ["shell", "shell"]})
        assert config.enabled == ("sql", "shell")

    def test_in_tree_example_validates(self):
        config = load_policy_config(REPO_ROOT / "examples" / "policies.yaml")
        assert config.enabled == (
            "sql", "xss", "xss-context", "shell", "eval", "path",
        )
        assert ("shell", "run_command", 0) in config.extra_sinks

    def test_digest_is_stable_and_config_sensitive(self):
        a = config_from_dict({"policies": ["sql", "shell"]})
        b = config_from_dict({"policies": ["shell", "sql"]})
        c = config_from_dict({"policies": ["sql", "eval"]})
        assert a.digest() == b.digest()  # same normalized config
        assert a.digest() != c.digest()
        assert DEFAULT_CONFIG.digest() == PolicyConfig().digest()

    def test_config_is_hashable_and_picklable(self):
        import pickle

        config = config_from_dict({"policies": ["sql", "shell"]})
        assert hash(config) == hash(config)
        assert pickle.loads(pickle.dumps(config)) == config


class TestMalformedConfigs:
    @pytest.mark.parametrize(
        "document",
        [
            {"policies": []},
            {"policies": "sql"},
            {"policies": ["nonexistent"]},
            {"policies": ["sql"], "bogus": 1},
            {"policies": ["sql"], "sinks": ["not", "a", "map"]},
            {"policies": ["sql"], "sinks": {"nonexistent": {}}},
            {"policies": ["sql"], "sinks": {"shell": {"methods": {}}}},
            {"policies": ["sql"], "sinks": {"shell": {"functions": {"f": -1}}}},
            {"policies": ["sql"], "sinks": {"shell": {"functions": {"f": True}}}},
            {"policies": ["sql"], "sources": {"_ENV": "tainted"}},
            "just a string",
        ],
    )
    def test_typed_error(self, document):
        with pytest.raises(PolicyConfigError):
            config_from_dict(document)

    def test_missing_file_is_typed(self, tmp_path):
        with pytest.raises(PolicyConfigError):
            load_policy_config(tmp_path / "nope.yaml")

    def test_error_is_a_value_error(self):
        # parser.error-style handlers may catch ValueError generically
        assert issubclass(PolicyConfigError, ValueError)


class TestMiniYamlFallback:
    """The in-tree parser is the only one: configs mean the same with or
    without PyYAML installed."""

    def test_parses_the_schema_subset(self):
        assert _mini_yaml(VALID, "<test>") == {
            "policies": ["sql", "shell", "path"],
            "sinks": {"shell": {"functions": {"run_command": 0}}},
            "sources": {"_ENV": "direct"},
        }

    def test_comments_and_blank_lines(self):
        assert _mini_yaml(COMMENTED, "<test>") == {
            "policies": ["sql"],
            "sources": {"X": "direct"},
        }

    def test_tabs_rejected(self):
        with pytest.raises(PolicyConfigError):
            _mini_yaml(TABBED, "<test>")

    def test_used_when_pyyaml_is_absent(self):
        data = parse_policy_yaml(VALID)
        assert data == _mini_yaml(VALID, "<test>")
        config = config_from_dict(data)
        assert config.enabled == ("sql", "shell", "path")

    def test_in_tree_example_parses_without_pyyaml(self):
        text = (REPO_ROOT / "examples" / "policies.yaml").read_text()
        config = config_from_dict(parse_policy_yaml(text))
        assert config.enabled == (
            "sql", "xss", "xss-context", "shell", "eval", "path",
        )

    @pytest.mark.parametrize("name", sorted(CONFIG_TEXTS))
    def test_agrees_with_pyyaml(self, name):
        yaml = pytest.importorskip("yaml")
        text = CONFIG_TEXTS[name]
        assert _mini_yaml(text, "<test>") == yaml.safe_load(text)

    def test_both_reject_tab_indentation(self):
        yaml = pytest.importorskip("yaml")
        with pytest.raises(yaml.YAMLError):
            yaml.safe_load(TABBED)
        with pytest.raises(PolicyConfigError):
            parse_policy_yaml(TABBED)
