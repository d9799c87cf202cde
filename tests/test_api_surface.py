"""Every public name of the package is something the package itself uses: a
module-level function, class or constant, or a public method of a
module-level class, must be referenced somewhere in ``src/kdvlab`` outside
its own definition (``__all__`` entries are strings and do not count).  Code
that only the tests call belongs in the tests (``tests/oracles.py``).  The
same holds for parameters: every defaulted parameter of a module-level
function is passed by some call in ``src/kdvlab``."""

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


# Parameters a caller outside src/kdvlab is meant to set: the command line's
# argument list is the seam through which the tests drive it.
_TEST_SEAMS = {("cli", "main", "argv")}


def _calls(tree):
    """(name, call) of every call of a plain or dotted name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name):
                yield func.id, node
            elif isinstance(func, ast.Attribute):
                yield func.attr, node


def _passes(call, position, name):
    """Whether ``call`` passes the parameter at ``position`` (None for a
    keyword-only one) called ``name``, by position, keyword or unpacking."""
    if any(k.arg == name or k.arg is None for k in call.keywords):
        return True
    if position is None:
        return False
    return (len(call.args) > position
            or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_defaulted_parameter_is_passed_in_src():
    # a default that no caller in the package overrides is a constant with
    # extra steps, or a knob only the tests turn
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    calls = [c for tree in trees.values() for c in _calls(tree)]
    unpassed = []
    for mod, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
            defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            for position, name in defaulted:
                if (mod, node.name, name) in _TEST_SEAMS:
                    continue
                if not any(fn == node.name and _passes(call, position, name)
                           for fn, call in calls):
                    unpassed.append(f"{mod}.{node.name}({name})")
    assert not unpassed, f"defaulted parameters no call in src/kdvlab passes: {unpassed}"
