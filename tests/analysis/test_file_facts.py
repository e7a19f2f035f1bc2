"""Per-file facts live on the parsed tree (DESIGN §5n).

A file included by many pages is walked once per process for its
definitions and its audit inventory, not once per page; ``ast.walk``
keeps the preorder the dataclass-era walk had, which diagnostic order
and ``setdefault`` definition order depend on.
"""

import inspect
import pickle
from collections import Counter

import pytest

from repro.analysis.analyzer import entry_pages, run_pages
from repro.corpus import APPS, build_app
from repro.php import ast
from repro.php.parser import parse

NODE_TYPES = [
    value
    for value in vars(ast).values()
    if isinstance(value, type) and issubclass(value, ast.Node)
]


def declared_fields(cls) -> tuple[str, ...]:
    """A node type's fields as its constructor declares them."""
    parameters = inspect.signature(cls).parameters
    return tuple(name for name in parameters if name not in ("line", "span"))


def reference_walk(node):
    """Preorder over children in declared field order: list items in
    order, and the nodes inside tuple items."""
    yield node
    for name in declared_fields(type(node)):
        value = getattr(node, name)
        items = value if isinstance(value, list) else [value]
        for item in items:
            members = item if isinstance(item, tuple) else (item,)
            for member in members:
                if isinstance(member, ast.Node):
                    yield from reference_walk(member)


@pytest.fixture(scope="module")
def corpus_run(tmp_path_factory):
    """Every corpus app analyzed in-process (audit on), recording each
    ``ast.walk`` call and every tree the analysis parsed."""
    walked: list = []
    real_walk = ast.walk

    def counting_walk(node):
        walked.append(node)
        return real_walk(node)

    trees = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ast, "walk", counting_walk)
        for _, app_dir in APPS:
            tmp = tmp_path_factory.mktemp(f"facts_{app_dir}")
            build_app(tmp, app_dir)
            root = tmp / app_dir
            parse_cache: dict = {}
            run_pages(root, entry_pages(root), audit=True, jobs=1, parse_cache=parse_cache)
            trees.extend(tree for tree, _error in parse_cache.values() if tree is not None)
    return trees, walked


def test_fields_are_the_declared_constructor_fields():
    for cls in NODE_TYPES:
        assert cls._fields == declared_fields(cls), cls.__name__


def test_walk_matches_reference_on_every_parsed_corpus_file(corpus_run):
    trees, _ = corpus_run
    assert len(trees) > 100
    for tree in trees:
        got = list(ast.walk(tree))
        expected = list(reference_walk(tree))
        assert len(got) == len(expected), tree.path
        assert all(a is b for a, b in zip(got, expected)), tree.path


def test_parsed_nodes_carry_only_their_fields(corpus_run):
    # the dataclass-era walk read vars(node), so this is what keeps the
    # two walks' orders equal
    trees, _ = corpus_run
    for tree in trees[:20]:
        for node in ast.walk(tree):
            names = [name for name in vars(node) if name != "_facts"]
            assert names == ["line", "span", *node._fields]


def test_each_parsed_tree_is_walked_once_for_its_facts(corpus_run):
    trees, walked = corpus_run
    roots = {id(tree): tree for tree in trees}
    bodies = {id(tree.body): tree for tree in trees}
    per_tree = Counter(
        id(node) for node in walked if id(node) in roots or id(node) in bodies
    )
    # every tree: one walk, from the tree itself, and never its body
    assert not any(id(node) in bodies for node in walked)
    assert sorted(per_tree.values()) == [1] * len(trees)


def test_facts_follow_walk_order():
    tree = parse(
        "<?php\nfunction f() { $$x = g(); }\nclass C { function m() {} }\n"
        "include $p;\n$o->$m();\n$h(1);\neval('1');\n"
    )
    nodes = list(ast.walk(tree))
    facts = tree.facts()
    assert facts is tree.facts()
    assert list(facts.definitions) == [
        node for node in nodes if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    ]
    assert list(facts.constructs) == [
        node for node in nodes if isinstance(node, ast.INVENTORIED)
    ]
    assert [type(node).__name__ for node in facts.definitions] == [
        "FunctionDef", "ClassDef", "FunctionDef",
    ]


def test_facts_are_never_pickled():
    tree = parse("<?php function f() { return 1; }\n")
    blob = pickle.dumps(tree)
    tree.facts()
    assert pickle.dumps(tree) == blob
    copy = pickle.loads(blob)
    assert copy == tree
    assert "_facts" not in vars(copy)
    assert copy.facts() == tree.facts()


def test_nodes_compare_by_value_and_do_not_hash():
    a = ast.Call(name="f", args=[ast.Var(name="x", line=2)], line=2)
    b = ast.Call(name="f", args=[ast.Var(name="x", line=2)], line=2)
    assert a == b
    assert a != ast.Call(name="f", args=[ast.Var(name="y", line=2)], line=2)
    assert a != ast.Call(name="f", args=[ast.Var(name="x", line=2)], line=3)
    assert ast.Break() != ast.Continue()
    assert repr(ast.Var(name="x")) == "Var(line=0, span=None, name='x')"
    with pytest.raises(TypeError):
        hash(a)


def test_node_types_are_plain_classes():
    # a dataclass generates its methods with exec at import time, which
    # was most of what importing this module cost (DESIGN §5n)
    assert not [cls for cls in NODE_TYPES if hasattr(cls, "__dataclass_fields__")]
