"""Every public name of the package is something the package itself uses: a
module-level function, class or constant, or a public method of a
module-level class, must be referenced somewhere in ``src/kdvlab`` outside
its own definition (``__all__`` entries are strings and do not count).  Code
that only the tests call belongs in the tests (``tests/oracles.py``)."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "kdvlab"


def _public_definitions(tree):
    """(name, node) of the public module-level definitions and of the public
    methods of module-level classes (as ``Class.method``)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef):
                        yield f"{node.name}.{sub.name}", sub
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node


def _references(tree):
    """(identifier, line) of every name and attribute reference."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def test_every_public_name_has_a_caller_in_src():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    refs = {mod: list(_references(tree)) for mod, tree in trees.items()}
    unused = []
    for mod, tree in trees.items():
        for name, node in _public_definitions(tree):
            short = name.rsplit(".", 1)[-1]
            if short.startswith("_"):
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(ident == short and not (other == mod and line in inside)
                       for other, found in refs.items() for ident, line in found):
                unused.append(f"{mod}.{name}")
    assert not unused, f"public names with no caller in src/kdvlab: {unused}"
