"""The repository tools under ``tools/``."""

import ast
import importlib.util
import json
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_artifact_hashes_diff_lists_each_moved_status_and_file(tmp_path, monkeypatch, capsys):
    tool = _tool("artifact_hashes")
    old = {"a": {"status": 0, "sha256": {"a.csv": "1", "summary.json": "2"}},
           "b": {"status": 1, "sha256": {"summary.json": "3"}},
           "gone": {"status": 2, "sha256": {}}}
    new = {"a": {"status": 1, "sha256": {"a.csv": "1", "summary.json": "4", "b.csv": "5"}},
           "b": {"status": 1, "sha256": {"summary.json": "3"}},
           "added": {"status": 2, "sha256": {}}}
    paths = []
    for name, doc in (("old", old), ("new", new), ("same", old)):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(doc))
    monkeypatch.setattr(sys, "argv", ["artifact_hashes.py", "--diff", str(paths[0]), str(paths[1])])
    assert tool.main() == 1
    assert capsys.readouterr().out.splitlines() == [
        "a: status 0 -> 1", "a: b.csv only in NEW", "a: summary.json differs",
        "added: only in NEW", "gone: only in OLD"]
    monkeypatch.setattr(sys, "argv", ["artifact_hashes.py", "--diff", str(paths[0]), str(paths[2])])
    assert tool.main() == 0
    assert capsys.readouterr().out == "no differences\n"


def test_step_times_times_every_kernel_of_each_root():
    tool, root = _tool("step_times"), TOOLS.parent
    result = tool.measure([root, root], rounds=1, steps=2, repeats=1)
    assert result["roots"] == [str(root)] * 2
    assert list(result["us_per_step"]) == ["gp_scalar", "gp_coupled", "ll_easy_plane",
                                           "ll_easy_cone", "af_chain", "ll_easy_plane x2",
                                           "ifrk4 N=512"]
    assert all(len(us) == 2 and min(us) > 0 for us in result["us_per_step"].values())


def test_traffic_lines_counts_each_statement_by_its_own_lines(monkeypatch):
    # docstrings, raises and statements outside a function (module and class
    # bodies) are left out; a decorator's line belongs to its def, and an if
    # or def owns none of the lines of the statements nested in it
    monkeypatch.syspath_prepend(str(TOOLS))  # the tool imports artifact_hashes
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    source = "\n".join([
        '"""Module docstring."""',          # 1
        "X = 1",                            # 2
        "",
        "",
        "def deco(f):",                     # 5
        '    """Docstring."""',             # 6
        "    return f",                     # 7
        "",
        "",
        "def outer(a):",                    # 10
        "    @deco",                        # 11
        "    def inner():",                 # 12
        "        return a",                 # 13
        "    if a:",                        # 14
        "        raise ValueError(a)",      # 15
        "    total = (a +",                 # 16
        "             1)",                  # 17
        "    return total",                 # 18
        "",
        "",
        "class C:",                         # 21
        "    y = 2",                        # 22
        "",
        "    def method(self):",            # 24
        "        return self.y",            # 25
    ])
    tool = _tool("traffic_lines")
    assert tool._statements(ast.parse(source)) == [
        (7, {7}), (12, {11, 12}), (13, {13}), (14, {14}), (16, {16, 17}), (18, {18}),
        (25, {25})]


def test_artifact_hashes_gives_a_run_that_raises_status_1(tmp_path, capsys):
    # the console script exits 1 on an uncaught exception: the hashes record
    # that status, and the next runs go on
    tool = _tool("artifact_hashes")

    class Cli:
        @staticmethod
        def main(argv):
            raise ValueError("no fixed point")

    status, outdir = tool._run(Cli, tmp_path, "corpus/00-kdv", {"experiment": "kdv"})
    assert (status, outdir) == (1, tmp_path / "corpus/00-kdv")
    assert "ValueError: no fixed point" in capsys.readouterr().err
