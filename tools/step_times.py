"""Time each step kernel of a kdvlab checkout on its own.

Usage::

    python3 tools/step_times.py ROOT [ROOT2]

One batch per kernel is built from ROOT's ``src``, through the function a
run calls (``micro.evolve_group``, ``kdv.evolve_kdv``), and its step is
taken from the ``advance`` that function hands to its ``_run``:

* the split step of ``gp_scalar`` and ``gp_coupled`` (N = 256, eps 0.2);
* the spin RK4 step of ``ll_easy_plane``, ``ll_easy_cone`` and
  ``af_chain``, one run each (N = 256, eps 0.2), and of the ``ll_easy_plane``
  batch of two runs at eps 0.2 and 0.1;
* the canonical IF-RK4 step of the ``gp_scalar`` limit at N = 512.

A micro step runs at a quarter of its ``dt_max``, as the experiments run
them, the IF-RK4 step at dt = 1e-3.  A kernel is timed over ``STEPS``
steps, ``REPEATS`` times in each of ``ROUNDS`` fresh interpreters, and the
tool prints as JSON the minimum over all timings in microseconds per step,
one column per root.  With two roots the interpreters alternate, ROOT,
ROOT2, ROOT, ..., so that both see the same drift of a loaded machine.
Nothing is written under a root.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
ROUNDS, STEPS, REPEATS = 5, 200, 10
PRESETS = {"gp_scalar": None, "gp_coupled": None, "ll_easy_plane": None,
           "ll_easy_cone": {"alpha": 1, "theta0": 1}, "af_chain": None}  # params of each run


class _Built(Exception):
    """Carries the ``advance`` of a batch out of the run that built it."""

    def __init__(self, advance):
        super().__init__()
        self.advance = advance


def _advance(module, build):
    """The ``advance`` that ``build()`` hands to ``module._run``; no step runs."""

    def run(runs, state, advance, *args, **kwargs):
        raise _Built(advance)

    real, module._run = module._run, run
    try:
        build()
    except _Built as built:
        return built.advance
    finally:
        module._run = real
    raise RuntimeError(f"{module.__name__}._run was not called")


def _kernels():
    """(name, advance) of every kernel, built from the importable kdvlab."""
    import numpy as np

    from kdvlab import kdv, micro
    from kdvlab.grid import Grid
    from kdvlab.models import limit_equation, preset

    grid = Grid(256, 8 * np.pi)
    bump = 0.3 / np.cosh((grid.x - 0.5 * grid.length) / 2.0) ** 2
    bump -= bump.mean()

    def micro_batch(name, params, eps):
        geom, spec = preset(name, params)
        states = [micro.well_prepared_init(spec, np.tile(bump, (geom.dim, 1)), grid, e)
                  for e in eps]
        dts = [0.25 * micro.dt_max(spec, e, grid) for e in eps]
        return _advance(micro, lambda: micro.evolve_group(
            spec, states, 1.0, dts, consumers=[lambda times, block: None] * len(eps)))

    kernels = [(name, micro_batch(name, params, [0.2])) for name, params in PRESETS.items()]
    kernels.append(("ll_easy_plane x2", micro_batch("ll_easy_plane", None, [0.2, 0.1])))
    wide = Grid(512, 16 * np.pi)
    model = limit_equation(preset("gp_scalar")[0])
    u0 = 0.1 * np.sin(2 * np.pi * wide.x / wide.length)[None]
    kernels.append(("ifrk4 N=512", _advance(kdv, lambda: kdv.evolve_kdv(model, u0, wide, 1.0,
                                                                      1e-3))))
    return kernels


def _time(root: str, steps: int, repeats: int) -> dict:
    """Microseconds per step of each kernel of ROOT, the minimum of
    ``repeats`` timings of ``steps`` steps (run in a child interpreter)."""
    sys.path.insert(0, str(Path(root) / "src"))
    from kdvlab import micro

    if not Path(micro.__file__).resolve().is_relative_to(Path(root).resolve() / "src"):
        raise SystemExit(f"kdvlab imported from {micro.__file__}, not {root}/src")
    times = {}
    for name, advance in _kernels():
        for _ in range(steps):  # warm up
            advance()
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(steps):
                advance()
            best = min(best, time.perf_counter() - start)
        times[name] = 1e6 * best / steps
    return times


def _child(root: Path, steps: int, repeats: int) -> dict:
    code = (f"import json, sys; sys.path.insert(0, {str(TOOLS)!r}); import step_times; "
            f"print(json.dumps(step_times._time({str(root)!r}, {steps}, {repeats})))")
    out = subprocess.run([sys.executable, "-B", "-c", code], capture_output=True, text=True,
                         check=True, cwd=TOOLS)
    return json.loads(out.stdout)


def measure(roots, rounds=ROUNDS, steps=STEPS, repeats=REPEATS) -> dict:
    """``{"roots": [...], "us_per_step": {kernel: [µs of each root]}}``, the
    minimum over ``rounds`` alternating interpreters per root."""
    best = [{} for _ in roots]
    for _ in range(rounds):
        for i, root in enumerate(roots):
            for name, us in _child(Path(root).resolve(), steps, repeats).items():
                best[i][name] = min(us, best[i].get(name, us))
    return {"roots": [str(r) for r in roots],
            "us_per_step": {name: [round(b[name], 2) for b in best] for name in best[0]}}


def main() -> int:
    roots = sys.argv[1:]
    if len(roots) not in (1, 2):
        print("usage: python3 tools/step_times.py ROOT [ROOT2]", file=sys.stderr)
        return 2
    print(json.dumps(measure(roots), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
