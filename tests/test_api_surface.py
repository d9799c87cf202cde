"""Every public name of the package is something the package itself uses: a
module-level function, class or constant, or a public method of a
module-level class, must be referenced somewhere in ``src/kdvlab`` outside
its own definition (``__all__`` entries are strings and do not count).  Code
that only the tests call belongs in the tests (``tests/oracles.py``).  The
same holds for parameters: every defaulted parameter of a module-level
function, method or constructor is passed by some call in ``src/kdvlab``;
and for run output: every ``Trajectory`` attribute and ``meta`` key a run
writes is read by the code the run returns to.  README.md names only what
exists: every backticked ``kdvlab.…``, ``module.name`` or ``Class.name`` in it
is defined in ``src/kdvlab``."""

import ast
import re
import sys
from pathlib import Path

from kdvlab import experiments, grid

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


def _defaulted(args, skip):
    """(position, name) of the defaulted parameters of ``args``, with the
    positions a call sees once the first ``skip`` (self) are bound."""
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(i - skip, a.arg) for i, a in enumerate(positional) if i >= first]
    return out + [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]


def _callables(tree):
    """(call name, defaulted parameters) of the module-level functions, and
    of the methods and constructors of module-level classes (a constructor
    is called by its class name; ``self`` is not passed)."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, _defaulted(node.args, 0)
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef):
                    skip = 0 if any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                    for d in sub.decorator_list) else 1
                    name = node.name if sub.name == "__init__" else sub.name
                    yield name, _defaulted(sub.args, skip)


def test_every_defaulted_parameter_is_passed_in_src():
    # a default that no caller in the package overrides is a constant with
    # extra steps, or a knob only the tests turn
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    calls = [c for tree in trees.values() for c in _calls(tree)]
    unpassed = []
    for mod, tree in trees.items():
        for fn_name, defaulted in _callables(tree):
            for position, name in defaulted:
                if (mod, fn_name, name) in _TEST_SEAMS:
                    continue
                if not any(fn == fn_name and _passes(call, position, name)
                           for fn, call in calls):
                    unpassed.append(f"{mod}.{fn_name}({name})")
    assert not unpassed, f"defaulted parameters no call in src/kdvlab passes: {unpassed}"


# The functions that build a trajectory: their own bookkeeping reads do not
# count as reading it.
_PRODUCERS = {"_run", "_evolve_ifrk4", "evolve_kdv", "evolve_micro", "evolve_group"}


def _read_in_src():
    frame = sys._getframe(2)
    return frame.f_code.co_filename.startswith(str(SRC)) and frame.f_code.co_name not in _PRODUCERS


class _Meta(dict):
    """``meta`` that logs the keys written and the keys read in src/kdvlab."""

    def __init__(self, log, items=()):
        super().__init__()
        self.log = log
        self.update(items)

    def __setitem__(self, key, value):
        self.log["written"].add(f"meta[{key!r}]")
        super().__setitem__(key, value)

    def update(self, *args, **kwargs):
        for key, value in dict(*args, **kwargs).items():
            self[key] = value

    def __getitem__(self, key):
        if _read_in_src():
            self.log["read"].add(f"meta[{key!r}]")
        return super().__getitem__(key)

    def get(self, key, default=None):
        if _read_in_src():
            self.log["read"].add(f"meta[{key!r}]")
        return super().get(key, default)


def _small(kind, **overlay):
    raw = experiments.default_config(kind)
    for key, value in overlay.items():
        raw[key] = {**raw[key], **value} if isinstance(value, dict) else value
    return raw


def test_every_trajectory_field_a_run_writes_is_read_in_src(tmp_path, monkeypatch):
    # each experiment once, small; the hyperbolic run aborts (its verdict
    # reads the abort time), and so does a second kdv run, whose summary
    # reports its abort fields
    log = {"written": set(), "read": set()}

    class Logged(grid.Trajectory):
        def __setattr__(self, name, value):
            log["written"].add(name)
            if name == "meta":
                value = _Meta(log, value)
            object.__setattr__(self, name, value)

        def __getattribute__(self, name):
            if _read_in_src():
                log["read"].add(name)
            return object.__getattribute__(self, name)

    original = grid.Trajectory
    for name, module in list(sys.modules.items()):
        if name.startswith("kdvlab.") and getattr(module, "Trajectory", None) is original:
            monkeypatch.setattr(module, "Trajectory", Logged)
    runs = [
        _small("kdv", time={"t_final": 0.1}),
        _small("micro", time={"t_final": 0.05}),
        _small("converge", eps_list=[0.2, 0.1], time={"t_final": 0.05}),
        _small("soliton", time={"t_final": 0.1}),
        _small("miura", time={"t_final": 0.1}),
        _small("hyperbolic", grid={"n": 128}),
        _small("kdv", preset="ll_easy_cone", params={"alpha": 0.5, "theta0": 0.3},
               grid={"n": 32, "length": 1.0}, time={"t_final": 0.05, "dt": 0.0025, "snapshots": 3},
               initial={"shape": "mode", "amplitude": 1.0, "width": 0.3}),
    ]
    for i, raw in enumerate(runs):
        raw["output_dir"] = str(tmp_path / str(i))
        experiments.run_experiment(experiments.ExperimentConfig.from_dict(raw))
    assert {"times", "aborted", "abort_time", "meta['snapshots']"} <= log["written"]
    unread = sorted(log["written"] - log["read"])
    assert not unread, f"trajectory fields no reader in src/kdvlab uses: {unread}"


def test_every_config_field_is_read_in_a_run():
    # a field that only echo() reads reaches no computation: it is an option
    # that changes nothing but the summary
    tree = ast.parse((SRC / "experiments.py").read_text())
    config = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "ExperimentConfig")
    methods = {n.name: n for n in config.body if isinstance(n, ast.FunctionDef)}
    # the attributes of every experiment's default config, but the fields
    # echo() reads them from; a read by the validation alone does not count
    fields = {name for kind in experiments.EXPERIMENT_KINDS
              for name in vars(experiments.ExperimentConfig.from_dict(
                  experiments.default_config(kind)))} - {"_fields"}
    skip = {line for name in ("echo", "from_dict")
            for line in range(methods[name].lineno, methods[name].end_lineno + 1)}
    read = {n.attr for n in ast.walk(tree)
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
            and n.value.id in ("cfg", "self") and n.lineno not in skip}
    assert fields, "ExperimentConfig.from_dict builds no config"
    assert not fields - read, f"config fields read only by echo(): {sorted(fields - read)}"


def _init_attributes(tree):
    """(Class.attr) of every attribute a class sets on ``self`` in its
    ``__init__``."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for init in cls.body:
            if not (isinstance(init, ast.FunctionDef) and init.name == "__init__"):
                continue
            for node in ast.walk(init):
                if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    for target in targets:
                        for sub in ast.walk(target):
                            if (isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)
                                    and sub.value.id == "self"):
                                yield f"{cls.name}.{sub.attr}"


def _attribute_reads(tree):
    """The attribute names read anywhere: loads, and the targets of an
    augmented assignment (``work.torque_z += ...`` reads before it writes)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
            yield node.target.attr


def test_every_instance_attribute_set_in_init_is_read_in_src():
    # an attribute stored by a constructor and never read is state that
    # changes nothing; a constructor argument kept only for validation stays
    # an argument
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    reads = {attr for tree in trees for attr in _attribute_reads(tree)}
    unread = sorted({name for tree in trees for name in _init_attributes(tree)
                     if name.rsplit(".", 1)[-1] not in reads})
    assert not unread, f"instance attributes set in __init__ and never read in src/kdvlab: {unread}"


def _defined_paths(trees):
    """Dotted paths of what src/kdvlab defines: each module, its module-level
    names, and each module-level class's methods, class attributes and the
    attributes its methods set on ``self`` (as ``module.Class.attr`` and
    ``Class.attr``)."""
    paths = set(trees)
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            paths.update(f"{mod}.{name}" for name in names)
            if isinstance(node, ast.ClassDef):
                members = {sub.name for sub in node.body if isinstance(sub, ast.FunctionDef)}
                members.update(t.id for sub in node.body if isinstance(sub, ast.Assign)
                               for t in sub.targets if isinstance(t, ast.Name))
                members.update(a.attr for a in ast.walk(node)
                               if isinstance(a, ast.Attribute) and isinstance(a.ctx, ast.Store)
                               and isinstance(a.value, ast.Name) and a.value.id == "self")
                paths.update(f"{prefix}{node.name}.{m}" for m in members
                             for prefix in (f"{mod}.", ""))
    return paths


def _readme_references(text, heads):
    """The dotted names of the backticked spans of README text whose head is
    ``kdvlab`` or one of ``heads`` (a call's arguments dropped), with the
    ``kdvlab.`` prefix stripped."""
    for span in re.findall(r"`([^`\n]+)`", text):
        match = re.match(r"[A-Za-z_]\w*(?:\.\w+)+", span)
        if match:
            path = match.group(0).removeprefix("kdvlab.")
            if path.split(".")[0] in heads:
                yield path


def test_every_readme_reference_resolves_in_src():
    # a renamed or removed function must not live on in the docs
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    defined = _defined_paths(trees)
    classes = {node.name for tree in trees.values() for node in tree.body
               if isinstance(node, ast.ClassDef)}
    text = (SRC.parent.parent / "README.md").read_text()
    refs = set(_readme_references(text, set(trees) | classes))
    assert len(refs) >= 40  # the check is not vacuous
    stale = sorted(refs - defined)
    assert not stale, f"README names that src/kdvlab does not define: {stale}"


def test_every_module_imports_only_the_layers_below_it():
    # the layer order of the package docstring: a module may import only
    # modules listed before it under "Layers, bottom up"
    doc = ast.get_docstring(ast.parse((SRC / "__init__.py").read_text()))
    order = re.findall(r"``(\w+)``", doc.split("Layers, bottom up:", 1)[1])
    modules = {path.stem for path in SRC.glob("*.py")} - {"__init__"}
    assert sorted(order) == sorted(modules)  # every module has one place
    upward = []
    for rank, mod in enumerate(order):
        for node in ast.walk(ast.parse((SRC / f"{mod}.py").read_text())):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = [node.module] if node.module else [a.name for a in node.names]
                upward += [f"{mod} imports {name}" for name in names if name not in order[:rank]]
    assert not upward, f"imports of a module at or above the importer's layer: {upward}"
