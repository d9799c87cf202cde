"""Hash the artifacts of the benchmark's experiments, of the CLI defaults and
of the fixed config corpus.

Usage::

    python3 tools/artifact_hashes.py ROOT OUT
    python3 tools/artifact_hashes.py --diff OLD NEW

ROOT is a kdvlab checkout.  Its ``src`` is imported, and the runs are the
experiments of every workload in its ``perfbench/workloads.py`` at seed 0,
then the default config of each of the six experiment kinds, then the fixed
configs of the test corpus (``corpus(extra=0)`` of ``tests/test_corpus.py``,
taken from this tool's own checkout, so that two checkouts run the same
configs), each run through the command line into a temporary directory.
OUT receives one JSON document that maps each run to its exit status and
the sha256 of every CSV file and ``summary.json`` it wrote (``timings.json``
holds wall-clock times and is left out); a run that raises has status 1, as
the console script exits.  Two checkouts write
byte-identical artifacts with the same statuses exactly when their OUT
files are equal::

    python3 tools/artifact_hashes.py ../parent old.json
    python3 tools/artifact_hashes.py . new.json
    python3 tools/artifact_hashes.py --diff old.json new.json

``--diff OLD NEW`` prints each run whose exit status or any file hash
differs between two OUT files, one line per status and per file, and exits
1 if any does (0 if the files agree).  Nothing is written under ROOT.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import sys
import tempfile
import traceback
from pathlib import Path


CORPUS = Path(__file__).resolve().parent.parent / "tests" / "test_corpus.py"


def _corpus():
    """The fixed configs of the test corpus of this tool's checkout."""
    spec = importlib.util.spec_from_file_location("kdvlab_corpus", CORPUS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.corpus(extra=0)


def _runs(workloads, default_config, kinds):
    """(name, raw config) of every run: the workloads' experiments at seed 0,
    the default config of each experiment kind, then the corpus."""
    for workload in workloads.WORKLOADS:
        for i, raw in enumerate(workloads.experiment_dicts(workload, 0, default_config)):
            yield f"{workload}/{i}-{raw['experiment']}", raw
    for kind in kinds:
        yield f"default/{kind}", default_config(kind)
    for i, raw in enumerate(_corpus()):
        yield f"corpus/{i:02d}-{raw['experiment']}", raw


def _setup(root: Path):
    """The ``workloads`` module of ROOT's ``perfbench`` and the ``cli`` and
    ``experiments`` modules of ROOT's ``src``, imported with no bytecode
    written."""
    sys.dont_write_bytecode = True  # leave no __pycache__ under ROOT
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import workloads
    from kdvlab import cli, experiments

    if not Path(experiments.__file__).resolve().is_relative_to(root / "src"):
        raise SystemExit(f"kdvlab imported from {experiments.__file__}, not {root / 'src'}")
    return workloads, cli, experiments


def _run(cli, tmp: Path, name: str, raw: dict):
    """Run one config through the command line into ``tmp/name``; returns
    the exit status and the output directory.  A run that raises prints its
    traceback and has status 1, the console script's exit status."""
    outdir = tmp / name
    cfg = dict(raw, output_dir=str(outdir))
    kind = cfg.pop("experiment")
    path = tmp / f"{name.replace('/', '_')}.json"
    path.write_text(json.dumps(cfg))
    try:
        return cli.main([kind, "--config", str(path)]), outdir
    except Exception:
        traceback.print_exc()
        return 1, outdir


def _diff(old: dict, new: dict) -> list:
    """One line per run status and per file hash that differs between two
    OUT documents (a run or file present on one side only included)."""
    lines = []
    for name in sorted(old.keys() | new.keys()):
        if name not in old or name not in new:
            lines.append(f"{name}: only in {'NEW' if name in new else 'OLD'}")
            continue
        a, b = old[name], new[name]
        if a["status"] != b["status"]:
            lines.append(f"{name}: status {a['status']} -> {b['status']}")
        for f in sorted(a["sha256"].keys() | b["sha256"].keys()):
            was, now = a["sha256"].get(f), b["sha256"].get(f)
            if was != now:
                change = "differs" if was and now else "only in " + ("NEW" if now else "OLD")
                lines.append(f"{name}: {f} {change}")
    return lines


def main() -> int:
    args = sys.argv[1:]
    if len(args) == 3 and args[0] == "--diff":
        old, new = (json.loads(Path(p).read_text()) for p in args[1:])
        lines = _diff(old, new)
        print("\n".join(lines) if lines else "no differences")
        return 1 if lines else 0
    if len(args) != 2:
        print("usage: python3 tools/artifact_hashes.py ROOT OUT\n"
              "       python3 tools/artifact_hashes.py --diff OLD NEW", file=sys.stderr)
        return 2
    root, out = Path(args[0]).resolve(), Path(args[1])
    workloads, cli, experiments = _setup(root)
    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, raw in _runs(workloads, experiments.default_config, experiments.EXPERIMENT_KINDS):
            status, outdir = _run(cli, Path(tmp), name, raw)
            files = sorted(outdir.glob("*.csv")) + [outdir / "summary.json"]
            hashes[name] = {
                "status": status,
                "sha256": {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
                           for f in files if f.exists()},
            }
    out.write_text(json.dumps(hashes, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
