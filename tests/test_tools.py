"""The repository tools under ``tools/``."""

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
