"""List the statements of kdvlab that the artifact runs never reach.

Usage::

    python3 tools/traffic_lines.py ROOT OUT

ROOT is a kdvlab checkout.  The runs are those of ``artifact_hashes.py``
(the benchmark's experiments at seed 0, the default config of each
experiment kind, then the fixed corpus), each run through the command line
into a temporary directory, then one traced pass of ROOT's perfbench
(``sample.run_pass`` with its tracer installed, over a small serial
``converge`` and a small ``micro`` run), whose counters reach code that no
untraced run calls (``perfbench/layers.py`` takes the ``len()`` of what
``hydro.extract_series`` returns).  All of it runs under a line tracer, set
from the import of kdvlab on, that follows only the frames of
``ROOT/src/kdvlab``.  OUT
receives one line ``module:line: source`` per statement that never ran,
sorted by module and line.  The statements are
found with ``ast``; left out are raise statements, docstrings, ``global``
and ``nonlocal``, and every statement outside a function (module and class
bodies run at import).  A multi-line statement ran when any of its own
lines did, the lines of the statements nested in it not counted.  Only the
calling process is traced, so code that only a worker pool's processes run
(``converge`` with ``workers`` > 1) is listed as never run.  Nothing is
written under ROOT::

    python3 tools/traffic_lines.py . never_ran.txt
"""

from __future__ import annotations

import ast
import math
import sys
import tempfile
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ next to this tool
from artifact_hashes import _run, _runs, _setup  # noqa: E402

# raises are error paths; global and nonlocal make no line event
_SILENT = (ast.Raise, ast.Global, ast.Nonlocal)


def _child_statements(node):
    """The statements nested directly in ``node``: through its expressions,
    handlers and match cases, not through other statements."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.stmt):
            yield child
        else:
            yield from _child_statements(child)


def _is_docstring(stmt, parent) -> bool:
    return (isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and stmt is parent.body[0] and isinstance(stmt, ast.Expr)
            and isinstance(stmt.value, ast.Constant) and isinstance(stmt.value.value, str))


def _statements(tree):
    """(first line, own lines) of each statement inside a function of the
    module ``tree``: its lines, decorators included, less those of the
    statements nested in it."""
    found = []

    def visit(node, in_function):
        for stmt in _child_statements(node):
            children = list(_child_statements(stmt))
            if in_function and not isinstance(stmt, _SILENT) and not _is_docstring(stmt, node):
                first = min([stmt.lineno] + [d.lineno for d in getattr(stmt, "decorator_list", [])])
                own = set(range(first, stmt.end_lineno + 1))
                for child in children:
                    own -= set(range(child.lineno, child.end_lineno + 1))
                found.append((stmt.lineno, own))
            visit(stmt, in_function or isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)))

    visit(tree, False)
    return found


def _tracer(prefix: str):
    """A ``sys.settrace`` function that records, per file under ``prefix``,
    the lines that ran, and the dict it records them in."""
    ran = {}

    def trace(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        lines = ran.setdefault(filename, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    return trace, ran


def _traced_pass(experiments, tmp: Path) -> None:
    """One pass of perfbench's ``sample.run_pass`` with its tracer
    installed, over a serial converge of two eps-runs and a micro run, both
    at a small size, into ``tmp``."""
    import sample
    import tracer as tracing

    small = {"grid": {"n": 64, "length": 8 * math.pi},
             "time": {"t_final": 0.05, "dt": 1e-3, "snapshots": 3}}
    raws = [dict(experiments.default_config("converge"), eps_list=[0.2, 0.1], **small),
            dict(experiments.default_config("micro"), preset="ll_easy_plane", **small)]
    configs = [experiments.ExperimentConfig.from_dict(dict(raw, output_dir=str(tmp / f"traced-{i}")))
               for i, raw in enumerate(raws)]
    statuses, _ = sample.run_pass(experiments, configs, tracing.Tracer())
    raised = [s for s in statuses if isinstance(s, str)]
    if raised:
        raise SystemExit(f"the traced pass raised: {raised[0]}")


def main() -> int:
    args = sys.argv[1:]
    if len(args) != 2:
        print("usage: python3 tools/traffic_lines.py ROOT OUT", file=sys.stderr)
        return 2
    root, out = Path(args[0]).resolve(), Path(args[1])
    package = root / "src" / "kdvlab"
    trace, ran = _tracer(str(package) + "/")
    sys.settrace(trace)  # from the import on: a function may run only then
    try:
        workloads, cli, experiments = _setup(root)
        with tempfile.TemporaryDirectory() as tmp:
            for name, raw in _runs(workloads, experiments.default_config,
                                   experiments.EXPERIMENT_KINDS):
                _run(cli, Path(tmp), name, raw)
            _traced_pass(experiments, Path(tmp))
    finally:
        sys.settrace(None)
    report = []
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        hit = ran.get(str(path), set())
        for line, own in _statements(ast.parse(source)):
            if not own & hit:
                report.append(f"{path.name}:{line}: {lines[line - 1].strip()}")
    out.write_text("".join(r + "\n" for r in report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
