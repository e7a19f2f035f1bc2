"""Differential-oracle regression tests.

* every minimized seed page under ``seeds/`` replays deterministically
  with zero divergences (membership + verdict agreement);
* a deliberately broken builtin model (an under-approximating
  ``addslashes``) is caught as a membership divergence and minimized to
  a small reproducer;
* the fuzz corpus is byte-identical across runs with the same seed;
* a page's concrete executions run on the analysis's own parsed trees,
  so each file is parsed once per page, and an edited file is never
  served its old tree;
* the concrete registry covers every abstractly-modeled builtin, so the
  two sides cannot drift silently.
"""

import json
import random
import shutil
from pathlib import Path

import pytest

from repro.analysis import stringtaint
from repro.corpus.generator import generate_fuzz_page
from repro.oracle import InputVector, diff_page, interp
from repro.oracle.differ import PageOracle
from repro.oracle.fuzz import minimize_page, minimize_vector, sample_vector
from repro.oracle.interp import execute_page
from repro.php import builtins

SEEDS = sorted(
    path
    for path in (Path(__file__).parent / "seeds").iterdir()
    if path.is_dir()
)


def load_vectors(seed: Path) -> list[InputVector]:
    data = json.loads((seed / "vectors.json").read_text())
    return [InputVector.from_dict(entry) for entry in data]


def seed_policy(seed: Path) -> str | None:
    """The optional per-seed ``policy`` marker (``sqlciv fuzz --policy``)."""
    marker = seed / "policy"
    return marker.read_text().strip() if marker.exists() else None


@pytest.mark.parametrize("seed", SEEDS, ids=[s.name for s in SEEDS])
def test_seed_replays_with_zero_divergences(seed):
    stats = {}
    divergences = diff_page(
        seed, "index.php", load_vectors(seed), stats=stats,
        policy=seed_policy(seed),
    )
    assert divergences == []
    assert stats["skipped"] == 0, "seed left the mirrored subset"
    assert stats["hits"] > 0, "seed no longer reaches any sink"


class TestPlantedDivergence:
    """An *under-approximating* model must be caught.  (An identity
    model would not be: the oracle witnesses unsoundness, nothing
    else.)"""

    @pytest.fixture()
    def broken_addslashes(self):
        original = builtins.BUILTINS["addslashes"]
        builtins.BUILTINS["addslashes"] = builtins._regular_handler(
            r"[0-9a-zA-Z ]*", "broken_addslashes", taint_arg=0
        )
        try:
            yield
        finally:
            builtins.BUILTINS["addslashes"] = original

    def test_caught_and_minimized(self, broken_addslashes, tmp_path):
        app = tmp_path / "app"
        shutil.copytree(Path(__file__).parent / "seeds" / "sprintf_pad", app)
        vector = InputVector(get={"id": "3"}, post={"name": "a'b"})
        divergences = diff_page(app, "index.php", [vector])
        assert divergences, "under-approximating model not caught"
        assert divergences[0].kind == "membership"

        minimize_page(app, "index.php", vector, "membership")
        vector = minimize_vector(app, "index.php", vector, "membership")
        source = (app / "index.php").read_text()
        assert len(source.splitlines()) <= 30
        assert diff_page(app, "index.php", [vector]), (
            "minimized page no longer reproduces"
        )

    def test_clean_model_has_no_divergence(self, tmp_path):
        app = tmp_path / "app"
        shutil.copytree(Path(__file__).parent / "seeds" / "sprintf_pad", app)
        vector = InputVector(get={"id": "3"}, post={"name": "a'b"})
        assert diff_page(app, "index.php", [vector]) == []


class TestShellPolicyMode:
    """``--policy shell``: shell sinks are recorded on both sides and
    the breakout automaton cross-checks statically-safe verdicts."""

    SEED = Path(__file__).parent / "seeds" / "shell_escapeshellarg"

    def test_shell_sinks_only_hit_in_policy_mode(self, tmp_path):
        app = tmp_path / "app"
        shutil.copytree(self.SEED, app)
        vectors = load_vectors(app)
        stats = {}
        diff_page(app, "index.php", vectors, stats=stats)
        assert stats["hits"] == 0, "shell sinks recorded without --policy"
        stats = {}
        diff_page(app, "index.php", vectors, stats=stats, policy="shell")
        assert stats["hits"] == 3 * len(vectors)

    def test_taint_dropping_model_caught_as_shell_verdict(self, tmp_path):
        """Plant a taint-dropping (but language-preserving) sanitizer
        model: membership holds, the static shell verdict is wrongly
        safe, and the concrete breakout span must flag it."""
        app = tmp_path / "app"
        app.mkdir()
        (app / "index.php").write_text(
            "<?php\n"
            "$d = trim($_GET['id']);\n"
            'system("ls -l " . $d);\n'
        )
        original = builtins.BUILTINS["trim"]
        builtins.BUILTINS["trim"] = builtins._regular_handler(r".*", "broken_trim")
        try:
            vector = InputVector(get={"id": "; id"})
            divergences = diff_page(app, "index.php", [vector], policy="shell")
        finally:
            builtins.BUILTINS["trim"] = original
        assert [d.kind for d in divergences] == ["verdict"]
        assert "metacharacter" in divergences[0].detail

    def test_shell_page_generation_is_deterministic(self, tmp_path):
        sources = []
        for run in range(2):
            root = tmp_path / f"run{run}"
            entry = generate_fuzz_page(
                root, random.Random(99), statements=6, policy="shell"
            )
            sources.append((root / entry).read_text())
        assert sources[0] == sources[1]
        assert any(
            sink + "(" in sources[0]
            for sink in ("system", "exec", "shell_exec", "passthru")
        )


class TestDeterminism:
    def test_same_seed_generates_identical_corpus(self, tmp_path):
        trees = []
        for run in range(2):
            root = tmp_path / f"run{run}"
            rng = random.Random(20_260_806)
            for index in range(3):
                generate_fuzz_page(root / f"page{index}", rng)
            trees.append(
                {
                    str(path.relative_to(root)): path.read_bytes()
                    for path in sorted(root.rglob("*.php"))
                }
            )
        assert trees[0] == trees[1]
        assert trees[0], "corpus generation produced no files"

    def test_same_seed_samples_identical_vectors(self):
        first = [sample_vector(random.Random(7)).as_dict() for _ in range(5)]
        second = [sample_vector(random.Random(7)).as_dict() for _ in range(5)]
        assert first == second


class TestOneParsePerPage:
    @pytest.fixture()
    def parse_calls(self, monkeypatch):
        """Paths handed to the analysis's and the interpreter's parser."""
        calls: dict[str, list[str]] = {"analysis": [], "interp": []}
        for side, module in (("analysis", stringtaint), ("interp", interp)):
            real = module.parse

            def counted(source, path, *args, _side=side, _real=real, **kwargs):
                calls[_side].append(path)
                return _real(source, path, *args, **kwargs)

            monkeypatch.setattr(module, "parse", counted)
        return calls

    @pytest.fixture()
    def page(self, tmp_path):
        rng = random.Random(20_261_017)
        entry = generate_fuzz_page(tmp_path, rng)
        return tmp_path, entry, [sample_vector(rng) for _ in range(4)]

    def test_analysis_trees_serve_every_execution(self, page, parse_calls):
        root, entry, vectors = page
        oracle = PageOracle(root, entry)
        shared = [
            execute_page(root, entry, vector, trees=oracle.result.trees)
            for vector in vectors
        ]
        files = parse_calls["analysis"]
        assert len(files) == len(set(files)) == len(oracle.result.trees) >= 2
        assert parse_calls["interp"] == []
        # the same hits as executions that parse the page themselves
        assert shared == [execute_page(root, entry, v) for v in vectors]
        assert any(shared), "page reaches no sink"

    def test_edited_file_is_not_served_a_stale_tree(self, page, parse_calls):
        root, entry, vectors = page
        PageOracle(root, entry)
        page_path = root / entry
        lines = page_path.read_text().splitlines()
        lines.insert(1, 'mysql_query("SELECT \'edited\'");')
        page_path.write_text("\n".join(lines) + "\n")
        stats: dict = {}
        assert diff_page(root, entry, vectors, stats=stats) == []
        # diff_page analyzed the edited files and executed on their trees
        assert parse_calls["analysis"].count(str(page_path)) == 2
        assert parse_calls["interp"] == []
        assert stats["hits"] > 0
        hits = execute_page(root, entry, vectors[0])
        assert hits[0].query == "SELECT 'edited'"


def test_every_abstract_model_has_a_concrete_counterpart():
    """The drift guard: a builtin modeled for the analysis must either
    have a concrete implementation or be an explicit no-effect name —
    otherwise the interpreter would silently under-execute it."""
    uncovered = (
        set(builtins.BUILTINS) - set(builtins.CONCRETE) - set(builtins.NO_EFFECT)
    )
    assert uncovered == set()
