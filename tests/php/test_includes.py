"""Tests for dynamic-include resolution (paper §4)."""

from pathlib import Path

import pytest

from repro.analysis.absdom import GrammarBuilder
from repro.analysis.analyzer import run_pages
from repro.obs.metrics import PERF
from repro.php.includes import IncludeResolver

from ..lang.reference import ref_generates


def make_project(tmp_path, names):
    for name in names:
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("<?php // stub")
    return IncludeResolver(tmp_path)


class TestLayoutScan:
    def test_finds_php_files(self, tmp_path):
        resolver = make_project(tmp_path, ["a.php", "sub/b.php", "c.txt"])
        names = [p.name for p in resolver.project_files()]
        assert "a.php" in names and "b.php" in names
        assert "c.txt" not in names

    def test_inc_and_tpl_included(self, tmp_path):
        resolver = make_project(tmp_path, ["x.inc", "y.tpl"])
        assert len(resolver.project_files()) == 2

    def test_candidate_names_relative_forms(self, tmp_path):
        resolver = make_project(tmp_path, ["sub/lib.php"])
        names = resolver.candidate_names(tmp_path)
        assert "sub/lib.php" in names
        assert "./sub/lib.php" in names


def pathlib_names(resolver, current_dir):
    """The name table as ``Path.relative_to`` builds it: the reference
    for the string-built table, first name wins in sorted-file order."""
    names = {}
    for file in resolver.project_files():
        rel_root = file.relative_to(resolver.root).as_posix()
        names.setdefault(rel_root, file)
        names.setdefault("./" + rel_root, file)
        try:
            rel_cur = file.relative_to(current_dir).as_posix()
            names.setdefault(rel_cur, file)
            names.setdefault("./" + rel_cur, file)
        except ValueError:
            pass
    return names


LAYOUT = [
    "index.php", "lib.php", "sub/lib.php", "sub/page.php",
    "sub/deep/lib.php", "sub/deep/x.inc", "subway/lib.php", "lang/lan_en.php",
]


class TestNameTables:
    def assert_same_table(self, resolver, current_dir):
        table = resolver.candidate_names(current_dir)
        # items() compares insertion order too, i.e. the first-wins order
        assert list(table.items()) == list(
            pathlib_names(resolver, Path(current_dir)).items()
        )

    def test_nested_directories(self, tmp_path):
        resolver = make_project(tmp_path, LAYOUT)
        for current in (
            "", "sub", "sub/deep", "subway", "lang", "missing", "sub/lib.php"
        ):
            self.assert_same_table(resolver, tmp_path / current)

    def test_current_dir_outside_root(self, tmp_path):
        resolver = make_project(tmp_path / "app", LAYOUT)
        for current in (
            tmp_path, tmp_path / "other", Path("/"), Path("rel"), Path(".")
        ):
            self.assert_same_table(resolver, current)
        names = resolver.candidate_names(tmp_path / "other")
        assert "sub/lib.php" in names and "lib.php" in names
        assert "app/lib.php" not in names

    def test_relative_root(self, tmp_path, monkeypatch):
        make_project(tmp_path, LAYOUT)
        monkeypatch.chdir(tmp_path)
        resolver = IncludeResolver(".")
        assert Path(".").parts == ()
        for current in (".", "sub", "sub/deep", "..", tmp_path):
            self.assert_same_table(resolver, current)

    def test_resolved_paths(self, tmp_path):
        make_project(tmp_path, LAYOUT)
        root = (tmp_path / "sub" / "..").resolve()
        resolver = IncludeResolver(root)
        for current in (root, (root / "sub" / "deep").resolve()):
            self.assert_same_table(resolver, current)

    def test_resolve_unchanged(self, tmp_path, monkeypatch):
        """resolve() over the shared table answers as over a fresh
        pathlib table for literal, affix-pattern and sigma-star paths."""
        resolver = make_project(tmp_path, LAYOUT)
        builder = GrammarBuilder()
        arguments = [
            builder.literal("lib.php"),
            builder.literal("./deep/x.inc"),
            builder.concat_all(
                [builder.literal("lang/lan_"), builder.any_string(),
                 builder.literal(".php")]
            ),
            builder.concat_all([builder.any_string(), builder.literal("lib.php")]),
            builder.any_string(),
        ]
        for current in (tmp_path, tmp_path / "sub", tmp_path / "sub" / "deep"):
            got = [
                resolver.resolve(builder.grammar, value.nt, current)
                for value in arguments
            ]
            with monkeypatch.context() as patch:
                patch.setattr(
                    IncludeResolver, "candidate_names", pathlib_names
                )
                expected = [
                    resolver.resolve(builder.grammar, value.nt, current)
                    for value in arguments
                ]
            assert got == expected

    def test_table_is_built_once_and_read_only(self, tmp_path):
        resolver = make_project(tmp_path, LAYOUT)
        table = resolver.candidate_names(tmp_path / "sub")
        assert resolver.candidate_names(tmp_path / "sub") is table
        assert resolver.candidate_names(Path(f"{tmp_path}/sub/")) is table
        with pytest.raises(TypeError):
            table["evil.php"] = tmp_path / "evil.php"
        assert "evil.php" not in resolver.candidate_names(tmp_path / "sub")


class TestResolution:
    def test_literal_path(self, tmp_path):
        resolver = make_project(tmp_path, ["lib.php", "other.php"])
        builder = GrammarBuilder()
        value = builder.literal("lib.php")
        files = resolver.resolve(builder.grammar, value.nt, tmp_path)
        assert [f.name for f in files] == ["lib.php"]

    def test_prefix_pattern_selects_matching_files(self, tmp_path):
        """The paper's example: include('lan_' . $choice . '.php')."""
        resolver = make_project(
            tmp_path,
            ["lang/lan_en.php", "lang/lan_de.php", "lang/other.php"],
        )
        builder = GrammarBuilder()
        choice = builder.join([builder.literal("en"), builder.literal("de")])
        path_value = builder.concat_all(
            [builder.literal("lang/lan_"), choice, builder.literal(".php")]
        )
        files = resolver.resolve(builder.grammar, path_value.nt, tmp_path)
        assert sorted(f.name for f in files) == ["lan_de.php", "lan_en.php"]

    def test_sigma_star_choice_resolved_by_layout(self, tmp_path):
        """Unknown $choice: the directory layout IS the specification."""
        resolver = make_project(
            tmp_path,
            ["lang/lan_en.php", "lang/lan_fr.php", "elsewhere/readme.php"],
        )
        builder = GrammarBuilder()
        path_value = builder.concat_all(
            [builder.literal("lang/lan_"), builder.any_string(), builder.literal(".php")]
        )
        files = resolver.resolve(builder.grammar, path_value.nt, tmp_path)
        assert sorted(f.name for f in files) == ["lan_en.php", "lan_fr.php"]

    def test_no_match(self, tmp_path):
        resolver = make_project(tmp_path, ["a.php"])
        builder = GrammarBuilder()
        value = builder.literal("missing.php")
        assert resolver.resolve(builder.grammar, value.nt, tmp_path) == []

    def test_current_dir_relative(self, tmp_path):
        resolver = make_project(tmp_path, ["sub/page.php", "sub/lib.php"])
        builder = GrammarBuilder()
        value = builder.literal("lib.php")
        files = resolver.resolve(builder.grammar, value.nt, tmp_path / "sub")
        assert [f.name for f in files] == ["lib.php"]


def generates_filter(resolver, grammar, nt, current, limit=64):
    """The reference answer: every name in the full table the argument
    grammar generates, by the span-table membership test."""
    names = resolver.candidate_names(current)
    return sorted(
        {file for text, file in names.items() if ref_generates(grammar, nt, text)}
    )[:limit]


class TestMembershipKernel:
    """resolve() decides membership with the Earley kernel; its answer
    must equal a ``ref_generates`` filter over the whole table."""

    def arguments(self, builder):
        return {
            "literal": builder.literal("lib.php").nt,
            "lan": builder.concat_all(
                [builder.literal("lang/lan_"), builder.any_string(),
                 builder.literal(".php")]
            ).nt,
            "sigma_segment": builder.concat_all(
                [builder.literal("sub/"), builder.any_string()]
            ).nt,
            "sigma_star": builder.any_string().nt,
            "empty": builder.grammar.fresh("empty"),
        }

    def test_resolve_equals_generates_filter(self, tmp_path):
        resolver = make_project(tmp_path, LAYOUT + ["lang/lan_de.php"])
        builder = GrammarBuilder()
        for label, nt in self.arguments(builder).items():
            for current in (tmp_path, tmp_path / "sub", tmp_path / "lang"):
                got = resolver.resolve(builder.grammar, nt, current)
                expected = generates_filter(
                    resolver, builder.grammar, nt, current
                )
                assert got == expected, (label, current)

    def test_one_test_per_kept_candidate(self, tmp_path):
        resolver = make_project(tmp_path, LAYOUT)
        builder = GrammarBuilder()
        value = builder.concat_all(
            [builder.literal("lang/lan_"), builder.any_string(),
             builder.literal(".php")]
        )
        before = PERF.snapshot()
        files = resolver.resolve(builder.grammar, value.nt, tmp_path)
        delta = PERF.diff(before)
        assert [f.name for f in files] == ["lan_en.php"]
        counters = delta["counters"]
        assert counters["include.membership.tests"] == counters[
            "include.prefilter.kept"
        ] > 0
        assert delta["timers"]["include.membership"] > 0


class TestIncompleteSample:
    """The fast path may only trust a fully enumerated language: a
    sampler drops sentential forms longer than 40 symbols, so fewer
    samples than asked for does not mean the whole language."""

    LONG = "b" * 41 + ".php"

    def write_app(self, root):
        pieces = " . ".join(['"b"'] * 41) + ' . ".php"'
        (root / "index.php").write_text(
            "<?php\n"
            "if ($_GET['x']) {\n"
            '    $p = "a.php";\n'
            "} else {\n"
            f"    $p = {pieces};\n"
            "}\n"
            "include $p;\n"
        )
        guard = "<?php\nif (!defined('APP')) { exit; }\n"
        (root / "a.php").write_text(guard + "$greeting = 'hello';\n")
        (root / self.LONG).write_text(
            guard
            + "mysql_query(\"SELECT * FROM t WHERE id='\" . $_GET['id'] . \"'\");\n"
        )

    def test_both_alternatives_resolve_and_injection_is_reported(
        self, tmp_path
    ):
        self.write_app(tmp_path)
        [result] = run_pages(tmp_path, [tmp_path / "index.php"], audit=True)
        assert result.deps == sorted(["index.php", "a.php", self.LONG])
        assert [
            (report.sink, report.verified) for report in result.reports
        ] == [("mysql_query", False)]
        messages = [d.message for d in result.audit.diagnostics]
        assert any(
            "resolved to 2 candidate file(s)" in message for message in messages
        ), messages
