"""Self-test of the benchmark's tracer and pass runner.

Usage (from the root of a checkout)::

    python3 perfbench/selftest.py

Checks the self-time arithmetic on a synthetic nested call with a scripted
clock, that installing and removing the wrappers leaves kdvlab and numpy.fft
as they were, that an untraced pass refuses to run while a wrapper is
installed, and that a small traced pass yields every per-layer metric named
in BENCHMARK.json; and that the host-speed calibration stays off the work
clock and out of the tracer's counts.  Prints one line per check and exits 1
on the first failure.
"""

from __future__ import annotations

import json
import shutil
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import sample  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402


class ScriptedClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def check(cond: bool, what: str) -> None:
    if not cond:
        raise AssertionError(what)
    print(f"ok  {what}")


def synthetic_nested_call() -> None:
    clock = ScriptedClock()
    t = tracing.Tracer(clock)

    def fake_fft(a):
        clock.now += 0.5
        return a

    fft = t.fft_counter(fake_fft)

    class Points:
        size = 64

    # kdv.evolve_kdv [0, 10] > grid.ifrk4_step [1, 5] > kdv.bilinear_apply [2, 4]
    # with one FFT of 0.5 s inside bilinear_apply and one inside ifrk4_step
    outer = t.open("kdv.evolve_kdv")
    clock.now = 1.0
    mid = t.open("grid.ifrk4_step")
    clock.now = 2.0
    inner = t.open("kdv.bilinear_apply")
    fft(Points())
    clock.now = 4.0
    t.close(inner)
    fft(Points())
    clock.now = 5.0
    t.close(mid)
    clock.now = 10.0
    t.close(outer)

    own = tracing.self_times(t)
    check(own == [6.0, 1.5, 1.5], f"self times {own} == [6.0, 1.5, 1.5]")
    check(sum(own) + sum(t.fft_s) == 10.0, "self times plus FFT time add up to the wall")
    check(tracing.subtree_sums(t, t.fft_calls) == [2, 2, 1], "FFT calls summed over subtrees")
    check(t.fft_points == [0, 64, 64], "FFT points charged to the innermost span")
    owner = tracing.credit(t, ("kdv.evolve_kdv",))
    check(owner == [0, -1, 0],
          "kdv helper under a grid span is credited to the enclosing kdv.evolve_kdv")
    metrics = layers.layer_metrics(t)
    check(metrics["kdv.evolve_s"] == 7.5, "kdv.evolve_s = evolve self + helper self")
    check(metrics["grid.ifrk4_step_us"] == 4e6, "grid.ifrk4_step_us is inclusive per call")


def wrappers_come_off() -> None:
    import numpy.fft

    import kdvlab.experiments
    import kdvlab.hydro
    import kdvlab.kdv

    before = {name: getattr(mod, attr) for name, mod, attr in (
        ("evolve_micro", kdvlab.experiments, "evolve_micro"),
        ("ifrk4_step", kdvlab.kdv, "ifrk4_step"),
        ("chart_extract", kdvlab.hydro, "chart_extract"),
        ("fft", numpy.fft, "fft"),
    )}
    check(tracing.installed_wrappers() == [], "no wrappers before install")
    t = tracing.Tracer()
    t.install(layers.COUNTERS)
    wrapped = set(tracing.installed_wrappers())
    for name in ("kdvlab.experiments.evolve_micro", "kdvlab.kdv.ifrk4_step",
                 "kdvlab.hydro.chart_extract", "kdvlab.micro._rhs_raw",
                 "numpy.fft.fft", "numpy.fft.ifft"):
        check(name in wrapped, f"{name} wrapped at its caller's name")
    try:
        sample.run_pass(kdvlab.experiments, [])
    except RuntimeError:
        check(True, "an untraced pass refuses to run with wrappers installed")
    else:
        check(False, "an untraced pass refuses to run with wrappers installed")
    t.uninstall()
    check(tracing.installed_wrappers() == [], "no wrappers after uninstall")
    after = {"evolve_micro": kdvlab.experiments.evolve_micro,
             "ifrk4_step": kdvlab.kdv.ifrk4_step,
             "chart_extract": kdvlab.hydro.chart_extract, "fft": numpy.fft.fft}
    check(after == before, "uninstall restores the original functions")


def small_traced_pass() -> None:
    import kdvlab.experiments as experiments

    tmp = ROOT / ".perfbench_out" / "selftest"
    try:
        raws = [
            {**experiments.default_config("kdv"),
             "time": {"t_final": 0.01, "dt": 1e-3, "snapshots": 2}},
            {**experiments.default_config("micro"), "grid": {"n": 32, "length": 25.0},
             "time": {"t_final": 0.01, "dt": 1e-3, "snapshots": 2}},
        ]
        for i, raw in enumerate(raws):
            raw["output_dir"] = f"{tmp}/{i}"
        configs = [experiments.ExperimentConfig.from_dict(raw) for raw in raws]
        t = tracing.Tracer()
        statuses, wall = sample.run_pass(experiments, configs, t)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    check(statuses == [0, 0], f"small traced pass statuses {statuses}")
    check(tracing.installed_wrappers() == [], "traced pass removes its wrappers")
    own = tracing.self_times(t)
    root_span = t.names.index(tracing.ROOT)
    total = t.ends[root_span] - t.starts[root_span]
    check(abs(sum(own) + sum(t.fft_s) - total) < 1e-9 * max(1.0, total),
          "self times plus FFT time add up to the traced pass")
    metrics = layers.layer_metrics(t)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    named = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_s"}
    check(set(metrics) == named, "traced pass yields exactly the per-layer metrics named")
    check(metrics["kdv.steps"] == 10 and metrics["micro.evolve_calls"] == 1
          and metrics["experiments.runs"] == 2 and metrics["grid.fft_calls"] > 0,
          "counts from a small traced pass")


def speedometer_keeps_off_the_work_clock() -> None:
    before = signal.getsignal(signal.SIGALRM)
    meter = speed.Speedometer(*speed.array_calibration(), interval=0.01).start()
    try:
        t0, w0 = time.perf_counter(), meter.work_clock()
        while meter.work_clock() - w0 < 0.2:
            pass
        t1, w1 = time.perf_counter(), meter.work_clock()
        readings = len(meter.speeds)
        factor = meter.split()
    finally:
        meter.stop()
    check(readings >= 5, f"{readings} calibrations in 0.2 s of work at a 10 ms interval")
    check(abs((t1 - t0) - (w1 - w0) - meter.paused) < 1e-3,
          "the work clock leaves out the time spent calibrating")
    check(0.0 < factor < 100.0, f"speed factor {factor:.3g} is a positive number")
    check(signal.getsignal(signal.SIGALRM) is before, "stop restores the SIGALRM handler")

    work, _ = speed.array_calibration()
    t = tracing.Tracer()
    t.install(layers.COUNTERS)
    try:
        sid = t.open("kdv.evolve_kdv")
        work()
        t.close(sid)
    finally:
        t.uninstall()
    check(t.fft_calls[sid] == 0, "calibration FFTs bypass the tracer's wrappers")


def main() -> int:
    try:
        synthetic_nested_call()
        wrappers_come_off()
        small_traced_pass()
        speedometer_keeps_off_the_work_clock()
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
