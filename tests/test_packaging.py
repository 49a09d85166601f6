import ast
import importlib
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"

# Public names that nothing calls yet, each kept for the CLI of ROADMAP item 1,
# which is to call it or delete it.
UNCALLED_UNTIL_THE_CLI = {
    "synthgen.validate_phantom": "ROADMAP item 1: the CLI runs it after generate",
    "synthgen.inject_false_merge": "ROADMAP item 1: merge detection wires it in or deletes it",
    "volume_io.write_embeddings": "ROADMAP item 1: the CLI's embed step writes the matrix",
    "volume_io.read_embeddings": "ROADMAP item 1: the CLI's analyze step reads the matrix",
    "encoder.save": "ROADMAP item 1: the CLI's train step saves the encoder, or it goes",
    "sampler.IDENTITY_AUGMENT": "ROADMAP item 1: an augmentation-free option for the CLI, or deleted",
}


def test_every_script_entry_point_imports():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    with PYPROJECT.open("rb") as f:
        scripts = tomllib.load(f)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), name


def _public(name: str) -> bool:
    return not name.startswith("_")


def _definitions(tree: ast.Module):
    """(name, node) of each public module-level function, class and constant,
    and of each public method and property of every class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(node.name):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for t in targets:
                if isinstance(t, ast.Name) and _public(t.id):
                    yield t.id, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _public(item.name):
                    yield item.name, item


def _references(tree: ast.Module):
    """(name, ids of the enclosing definitions) of each name read in the tree."""
    stack: list[int] = []

    def walk(node):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id, set(stack)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            yield node.attr, set(stack)
        stack.append(id(node))
        for child in ast.iter_child_nodes(node):
            yield from walk(child)
        stack.pop()

    yield from walk(tree)


def test_every_public_name_is_used_outside_the_tests():
    """A public name of synself that no code of synself or perfbench reads is
    surface kept alive by its tests alone; delete it with them. An exception
    that gains a caller leaves the list."""
    src = sorted((ROOT / "src" / "synself").glob("*.py"))
    bench = [p for p in sorted((ROOT / "perfbench").glob("*.py")) if not p.name.startswith("test_")]
    trees = {p: ast.parse(p.read_text(encoding="utf-8")) for p in src + bench}
    defined = [(name, node, p) for p in src for name, node in _definitions(trees[p])]
    refs: dict[str, list[set[int]]] = {}
    for tree in trees.values():
        for name, enclosing in _references(tree):
            refs.setdefault(name, []).append(enclosing)
    unused = sorted(
        f"{p.stem}.{name}" for name, node, p in defined
        if not any(id(node) not in enclosing for enclosing in refs.get(name, []))
    )
    assert unused == sorted(UNCALLED_UNTIL_THE_CLI)


def test_every_oracle_is_used_by_a_test():
    """A public function of tests/oracles.py that no test reads, directly or
    through another oracle, checks nothing; delete it, or write the test that
    compares against it."""
    tests = ROOT / "tests"
    oracles = ast.parse((tests / "oracles.py").read_text(encoding="utf-8"))
    bodies = {node.name: node for node in oracles.body if isinstance(node, ast.FunctionDef)}
    used = {
        name
        for p in sorted(tests.glob("test_*.py"))
        for name, _ in _references(ast.parse(p.read_text(encoding="utf-8")))
    }
    todo = sorted(used & set(bodies))
    while todo:
        for name, _ in _references(bodies[todo.pop()]):
            if name in bodies and name not in used:
                used.add(name)
                todo.append(name)
    assert sorted(name for name in bodies if _public(name) and name not in used) == []
