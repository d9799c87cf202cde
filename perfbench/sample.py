"""One benchmark sample, run in a fresh interpreter by ``run.py``.

Usage::

    python3 -I perfbench/sample.py --root ROOT --workload NAME --seed N
        --mode setup|pass|traced --workdir DIR

Imports ``kdvlab.experiments`` from ``ROOT/src`` and validates the
workload's configs (set-up); in ``pass`` and ``traced`` mode it then runs
the experiments one after another through ``run_experiment`` and checks
every ``summary.json``.  Prints one JSON object on standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from layers import COUNTERS, layer_metrics  # noqa: E402


def run_pass(experiments, configs, tracer=None, clock=time.perf_counter):
    """Run the configs one after another; returns (statuses, ``clock`` seconds).

    Without a tracer the pass refuses to start while any wrapper is
    installed.  With one, the wrappers are installed for the pass only and
    removed before returning, also when a run raises.
    """
    if tracer is None:
        stray = tracing.installed_wrappers()
        if stray:
            raise RuntimeError(f"wrappers installed before an untraced pass: {stray}")
    else:
        tracer.install(COUNTERS)
    statuses = []
    try:
        if tracer is not None:
            root_span = tracer.open(tracing.ROOT)
        started = clock()
        for cfg in configs:
            # the module attribute is looked up per call, so a traced pass
            # sees experiments.run_experiment through its wrapper
            try:
                statuses.append(experiments.run_experiment(cfg))
            except Exception:  # a raising experiment counts as failed
                statuses.append("raised: " + traceback.format_exc(limit=3))
        wall = clock() - started
        if tracer is not None:
            tracer.close(root_span)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return statuses, wall


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "pass", "traced"), required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args()
    meter = speed.Speedometer().start()
    try:
        return sample(args, meter)
    finally:
        meter.stop()


def sample(args, meter) -> int:
    root = Path(args.root).resolve()
    src = root / "src"
    sys.path.insert(0, str(src))
    import kdvlab.experiments as experiments

    if not Path(experiments.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"kdvlab imported from {experiments.__file__}, not {src}")

    workdir = Path(args.workdir)
    raws = workloads.experiment_dicts(args.workload, args.seed, experiments.default_config)
    for i, raw in enumerate(raws):
        raw["output_dir"] = str(workdir / f"{i}-{raw['experiment']}")
    configs = [experiments.ExperimentConfig.from_dict(raw) for raw in raws]
    setup_done = time.monotonic()
    setup = {"setup_done": setup_done, "setup_paused": meter.paused,
             "setup_speed": meter.split()}
    if args.mode == "setup":
        print(json.dumps(setup))
        return 0

    import numpy
    import scipy

    shutil.rmtree(workdir, ignore_errors=True)
    tracer = tracing.Tracer(meter.work_clock) if args.mode == "traced" else None
    meter.split(*speed.array_calibration())
    statuses, wall = run_pass(experiments, configs, tracer, meter.work_clock)
    pass_speed = meter.split()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    experiments_out = []
    for cfg, status, expected in zip(configs, statuses,
                                     workloads.expected_counters(args.workload)):
        record = {"experiment": cfg.experiment, "preset": cfg.preset_name,
                  "status": status, "problems": []}
        summary_path = Path(cfg.output_dir) / "summary.json"
        if status != 0:
            record["problems"].append(f"status {status!r}")
        if summary_path.is_file():
            data = summary_path.read_bytes()
            summary = json.loads(data)
            record["sha256"] = hashlib.sha256(data).hexdigest()
            record["tolerance_use"] = workloads.tolerance_use(summary)
            record["problems"] += workloads.counter_mismatches(summary, expected)
        else:
            record["problems"].append("no summary.json")
        experiments_out.append(record)

    out = {
        **setup,
        "wall_s": wall * pass_speed,
        "raw_wall_s": wall,
        "speed": pass_speed,
        "peak_rss_mb": peak_rss_mb,
        "experiments": experiments_out,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer)
        out["spans"] = len(tracer.names)
        trace_path = workdir.parent / f"trace-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write(trace_path)
        out["trace_file"] = str(trace_path)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
