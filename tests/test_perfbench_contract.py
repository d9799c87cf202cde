"""The benchmark's tracer wraps kdvlab functions by name (``micro._rhs_raw``
among them), so renaming or inlining a traced entry point must fail here
rather than silently break the benchmark."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes(tmp_path):
    # run on a copy of the checkout, so the self-test's scratch output
    # (.perfbench_out/) lands in the temporary directory
    skip = shutil.ignore_patterns("__pycache__", ".perfbench_out")
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=skip)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/selftest.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
