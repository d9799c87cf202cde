"""The benchmark's tracer wraps kdvlab functions by name (``micro._rhs_raw``
among them), so renaming or inlining a traced entry point must fail here
rather than silently break the benchmark."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

from kdvlab import experiments, hydro, kdv, micro
from kdvlab.grid import Grid
from kdvlab.models import preset

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


def test_traced_steps_and_trajectory_counters_resolve(monkeypatch):
    # perfbench/layers.py reads steps, RHS evaluations and the abort flag off
    # what evolve_kdv and evolve_micro return (a renamed key would read 0),
    # and the tracer wraps the steppers at the module names they are called by
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from layers import _trajectory_counts

    calls = {}

    def counted(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    assert experiments.evolve_micro is micro.evolve_micro
    for module, name in ((kdv, "ifrk4_step"), (micro, "rk4_step"), (micro, "_rhs_raw")):
        counted(module, name)

    grid = Grid(32, 2 * np.pi)
    model = kdv.LimitModel(kdv.QTensor([[[1.0]]]), 1.0)
    traj = kdv.evolve_kdv(model, 0.1 * np.sin(grid.x)[None, :], grid, 0.01, 1e-3, n_snapshots=3)
    assert _trajectory_counts(traj) == {"steps": 10, "rhs_evals": 0, "aborts": 0}
    assert traj.meta["steps"] == calls["ifrk4_step"] == 10

    # every spin family: the pair's coupling and the cone's anisotropy are
    # inside the traced right-hand side
    sphere = np.stack([np.cos(0.1 * np.sin(grid.x)), np.sin(0.1 * np.sin(grid.x)), np.zeros(32)])
    for kind, params, g0 in (("LL_EASY_PLANE", None, sphere),
                             ("AF_CHAIN", None, np.concatenate([sphere, -sphere])),
                             ("LL_EASY_CONE", {"alpha": 1.0, "theta0": 1.0},
                              np.stack([np.sin(1.0) * sphere[0], np.sin(1.0) * sphere[1],
                                        np.full(32, np.cos(1.0))]))):
        _, spec = preset(kind, params)
        s0 = micro.MicroState(spec, grid, 0.5, g0)
        dt = micro.dt_max(spec, 0.5, grid)
        calls.clear()
        traj = micro.evolve_micro(spec, s0, 6 * dt, dt, n_snapshots=3, consume=lambda t, b: None)
        assert _trajectory_counts(traj) == {"steps": 6, "rhs_evals": 24, "aborts": 0}, kind
        assert calls["rk4_step"] == 6 and traj.meta["rhs_evals"] == calls["_rhs_raw"] == 24, kind


def test_a_traced_pass_of_a_serial_converge_and_a_micro_run_resolves_its_counters(tmp_path,
                                                                                 monkeypatch):
    # perfbench's run_pass with a tracer installed: a serial converge (its
    # two eps-runs stepped as one group) and a micro run both exit 0, every
    # span that layers.COUNTERS reads with _trajectory_counts reports the
    # step and evaluation counts of the run's summary, and the wrappers come
    # off when the pass is over
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import sample
    import tracer as tracing
    from layers import COUNTERS, _trajectory_counts

    small = {"grid": {"n": 64, "length": 8 * np.pi},
             "time": {"t_final": 0.05, "dt": 1e-3, "snapshots": 3}}
    raws = [dict(experiments.default_config("converge"), eps_list=[0.2, 0.1], **small),
            dict(experiments.default_config("micro"), preset="ll_easy_plane", **small)]
    for i, raw in enumerate(raws):
        raw["output_dir"] = str(tmp_path / str(i))
    configs = [experiments.ExperimentConfig.from_dict(raw) for raw in raws]
    tracer = tracing.Tracer()
    statuses, _ = sample.run_pass(experiments, configs, tracer)
    assert statuses == [0, 0]
    assert tracing.installed_wrappers() == []

    counts = {}
    for sid, found in tracer.counts.items():
        if COUNTERS[tracer.names[sid]] is _trajectory_counts:
            counts.setdefault(tracer.names[sid], []).append(found)
    converge, micro_run = (json.loads((tmp_path / str(i) / "summary.json").read_text())["timings"]
                           for i in range(2))
    assert counts == {
        "kdv.evolve_kdv": [{"steps": converge["kdv_steps"], "rhs_evals": 0, "aborts": 0}],
        "micro.evolve_micro": [{"steps": micro_run["micro_steps"],
                                "rhs_evals": micro_run["rhs_evaluations"], "aborts": 0}],
    }
    assert micro_run["rhs_evaluations"] == 4 * micro_run["micro_steps"] > 0


def test_the_series_counters_read_the_length_and_chart_flags_of_a_block(monkeypatch):
    # perfbench/layers.py counts the snapshots and the out-of-chart states
    # of what hydro.extract_series returns by taking its len() and iterating
    # its states' valid flags, in every traced pass
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    from layers import _series_counts

    grid, eps = Grid(32, 2 * np.pi), 0.2
    _, spec = preset("GP_SCALAR")
    s0 = micro.well_prepared_init(spec, 0.1 * np.sin(grid.x)[None, :], grid, eps)
    block = np.stack([s0.values] * 3)
    assert _series_counts(hydro.extract_series(spec, block, grid, eps)) == {
        "snapshots": 3, "out_of_chart": 0}
    block[1] *= np.exp(1j * grid.x)  # a phase winding once: out of the chart
    assert _series_counts(hydro.extract_series(spec, block, grid, eps)) == {
        "snapshots": 3, "out_of_chart": 1}
