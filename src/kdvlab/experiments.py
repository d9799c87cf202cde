"""Experiment orchestration: validated configs, the experiment runners, and
deterministic artifact emission.

Every experiment writes, into its output directory, one or more time-series
CSV files (gnuplot-friendly, ``t`` first), a ``summary.json`` holding the
echoed configuration and a list of named pass/fail assertions, and a
``timings.json`` with wall-clock measurements.  The summary is byte-stable:
identical configurations produce identical bytes, so wall-clock times
live in the separate file and the summary's ``timings`` block holds
deterministic work counters instead.
"""

from __future__ import annotations

import copy
import json
import sys
import time
from pathlib import Path

import numpy as np

from .analysis import (
    SolitonSpec,
    build_soliton,
    complex_q_d2,
    find_fixed_point,
    miura_condition,
    miura_crosscheck,
)
from .grid import Grid, fourier_shift, l2_norm, step_plan
from .hydro import almost_hamiltonian, energy_proxy, extract_series, limit_error
from .kdv import LimitModel, conserved_quantities, evolve_kdv
from .micro import (SPLIT_STEP_RANGE, dt_max, evolve_group, evolve_micro, mass,
                    unit_norm_deviation, well_prepared_init)
from .models import KINDS, chart_radius, limit_equation, preset

__all__ = [
    "EXPERIMENT_KINDS",
    "ConfigError",
    "ExperimentConfig",
    "default_config",
    "emit_series",
    "run_experiment",
]

EXPERIMENT_KINDS = ("kdv", "micro", "converge", "soliton", "miura", "hyperbolic")

_SHAPES = ("bump", "mode", "sine", "soliton")


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


_COMMON = {
    "params": {},
    "output_dir": "results",
    "workers": 1,
}

_DEFAULTS = {
    "kdv": {
        "preset": "ll_easy_plane",
        "grid": {"n": 128, "length": 2 * np.pi},
        "time": {"t_final": 1.0, "dt": 1e-3, "snapshots": 11},
        "initial": {"shape": "mode", "amplitude": 0.1, "width": 2.0, "mode": 1},
    },
    "micro": {
        "preset": "gp_scalar",
        "grid": {"n": 256, "length": 8 * np.pi},
        "time": {"t_final": 0.5, "dt": 1e-3, "snapshots": 11},
        "initial": {"shape": "bump", "amplitude": 0.3, "width": 2.0, "mode": 1},
        "eps": 0.2,
    },
    "converge": {
        "preset": "gp_scalar",
        "grid": {"n": 256, "length": 8 * np.pi},
        "time": {"t_final": 0.5, "dt": 1e-3, "snapshots": 11},
        "initial": {"shape": "bump", "amplitude": 0.3, "width": 2.0, "mode": 1},
        "eps_list": [0.2, 0.1, 0.05],
    },
    "soliton": {
        "preset": "gp_scalar",
        "grid": {"n": 512, "length": 16 * np.pi},
        "time": {"t_final": 2.0, "dt": 1e-3, "snapshots": 11},
        "speed": 4.0,
    },
    "miura": {
        "preset": "gp_scalar",
        "grid": {"n": 512, "length": 2 * np.pi},
        "time": {"t_final": 0.5, "dt": 1e-3, "snapshots": 11},
        "initial": {"shape": "sine", "amplitude": 0.5, "width": 2.0, "mode": 1},
        "d2_alpha": 1.0,
        "d2_beta": 1.0,
    },
    "hyperbolic": {
        "preset": "gp_scalar",
        "grid": {"n": 512, "length": 2 * np.pi},
        "time": {"t_final": 1.0, "dt": 2e-4, "snapshots": 11},
        "initial": {"shape": "sine", "amplitude": 1.0, "width": 2.0, "mode": 1},
        "delta": 0.0,
        "speed": 4.0,
    },
}


def default_config(experiment: str) -> dict:
    """Baseline configuration dictionary for one experiment kind."""
    _require(experiment in EXPERIMENT_KINDS, "experiment",
             f"must be one of {EXPERIMENT_KINDS}, got {experiment!r}")
    cfg = copy.deepcopy(_COMMON)
    cfg.update(copy.deepcopy(_DEFAULTS[experiment]))
    cfg["experiment"] = experiment
    cfg["output_dir"] = f"results/{experiment}"
    return cfg


def _require(cond: bool, field: str, message: str):
    if not cond:
        raise ConfigError(f"{field}: {message}")


def _is_number(value) -> bool:
    """An int or float in float range: not a bool, and not the inf that JSON
    reads 1e400 as, nor NaN."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _number(value, field: str) -> float:
    _require(_is_number(value), field, f"must be a finite number, got {value!r}")
    return float(value)


def _positive(value, field: str) -> float:
    _require(_number(value, field) > 0, field, f"must be positive, got {value!r}")
    return float(value)


def _count(minimum: int):
    def read(value, field: str) -> int:
        _require(isinstance(value, int) and _is_number(value) and value >= minimum, field,
                 f"must be an integer >= {minimum}, got {value!r}")
        return value
    return read


def _choice(options: tuple):
    def read(value, field: str):
        _require(value in options, field, f"must be one of {options}, got {value!r}")
        return value
    return read


def _grid_size(value, field: str) -> int:
    n = _count(8)(value, field)
    _require(n & (n - 1) == 0, field, f"must be a power of two >= 8, got {n}")
    return n


def _eps(value, field: str) -> float:
    eps = _positive(value, field)
    _require(eps < 1.0, field, f"must be below 1, got {eps}")
    return eps


def _eps_list(value, field: str) -> list:
    _require(isinstance(value, (list, tuple)) and len(value) >= 2,
             field, f"must list at least two values, got {value!r}")
    eps_list = [_eps(e, field) for e in value]
    _require(all(b < a for a, b in zip(eps_list, eps_list[1:])),
             field, f"must be strictly decreasing, got {eps_list}")
    return eps_list


def _switch(value, field: str) -> float:
    _require(not isinstance(value, bool) and value in (0, 1), field,
             f"dispersion switch must be 0 or 1, got {value!r}")
    return float(value)


def _as_complex(value, field: str) -> complex:
    pair = value if isinstance(value, (list, tuple)) else [value, 0.0]
    _require(len(pair) == 2 and all(_is_number(v) for v in pair), field,
             f"must be a finite number or [re, im], got {value!r}")
    return complex(float(pair[0]), float(pair[1]))


def _path(value, field: str) -> str:
    _require(isinstance(value, str) and value, field, f"must be a non-empty path, got {value!r}")
    return value


def _params(value, field: str) -> dict:
    _require(isinstance(value, dict), field, f"must be a mapping, got {value!r}")
    return {name: _number(v, f"{field}.{name}") for name, v in value.items()}


# The reader of each leaf by dotted name: it returns the value read, or
# raises a ConfigError naming the field.  A leaf with no entry is a finite
# number; a mapping in the defaults with no entry is read key by key.
_READERS = {
    "experiment": _choice(EXPERIMENT_KINDS),
    "preset": _choice(tuple(kind.lower() for kind in KINDS)),
    "params": _params,
    "output_dir": _path,
    "workers": _count(1),
    "grid.n": _grid_size,
    "grid.length": _positive,
    "time.t_final": _positive,
    "time.dt": _positive,
    "time.snapshots": _count(2),
    "initial.shape": _choice(_SHAPES),
    "initial.amplitude": _positive,
    "initial.width": _positive,
    "initial.mode": _count(1),
    "eps": _eps,
    "eps_list": _eps_list,
    "speed": _positive,
    "delta": _switch,
    "d2_alpha": _as_complex,
    "d2_beta": _as_complex,
}


def _read(raw, defaults: dict, prefix: str = "") -> dict:
    """``raw`` read over ``defaults``: a key the defaults lack is an unknown
    field, a key left out takes its default, and each leaf goes through its
    reader."""
    _require(isinstance(raw, dict), prefix[:-1], f"must be a mapping, got {raw!r}")
    for key in raw:
        _require(key in defaults, f"{prefix}{key}", "unknown configuration field")
    fields = {}
    for key, default in defaults.items():
        name, value = prefix + key, raw.get(key, default)
        if isinstance(default, dict) and name not in _READERS:
            fields[key] = _read(value, default, name + ".")
        else:
            fields[key] = _READERS.get(name, _number)(value, name)
    return fields


class ExperimentConfig:
    """Validated parameters of one experiment run.

    Build with :meth:`from_dict`, which reads a raw dict over the
    :func:`default_config` of its ``experiment``: a key the defaults lack is
    an unknown field at any depth (the own fields of other experiments too),
    a key left out takes its default, and each leaf goes through its reader
    in ``_READERS``.  Each field is an attribute of its name, the fields of
    ``grid`` and ``time`` too, and ``preset`` is ``preset_name``.  A miura
    config whose ``d2_alpha``/``d2_beta`` tensor overflows is a config error.
    """

    def __init__(self, fields: dict):
        self._fields = fields
        for name, value in fields.items():
            if name in ("grid", "time"):
                vars(self).update(value)
            else:
                setattr(self, "preset_name" if name == "preset" else name, value)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        _require(isinstance(raw, dict), "config", f"must be a mapping, got {raw!r}")
        cfg = cls(_read(raw, default_config(raw.get("experiment"))))
        try:
            _, spec = preset(cfg.preset_name, cfg.params)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"params: {exc}") from None
        if cfg.experiment == "converge":
            steps, _ = step_plan(cfg.t_final, cfg.dt)
            _require(steps % (cfg.snapshots - 1) == 0, "time.dt",
                     f"the limit run's {steps} steps (t_final/dt rounded, at least 1) "
                     f"must be a multiple of snapshots-1 = {cfg.snapshots - 1} so snapshot "
                     "times match between the limit run and the microscopic runs")
        if cfg.experiment == "miura":
            try:
                with np.errstate(over="ignore", invalid="ignore"):
                    complex_q_d2(cfg.d2_alpha, cfg.d2_beta)
            except ValueError as exc:
                raise ConfigError(f"d2_alpha, d2_beta: {exc}") from None
        if spec.is_complex and cfg.experiment in ("micro", "converge"):
            (lo, hi), kmax = SPLIT_STEP_RANGE, np.pi * cfg.n / cfg.length
            for e in [cfg.eps] if cfg.experiment == "micro" else cfg.eps_list:
                _require(lo <= e * kmax <= hi, "eps" if cfg.experiment == "micro" else "eps_list",
                         f"eps*kmax = {e * kmax:.3g} is outside the validated condensate range [{lo}, {hi}]")
        return cfg

    def echo(self) -> dict:
        """The result-determining configuration, for the JSON summary: the
        fields read, complex values as [re, im].

        Execution mechanics (worker count, output directory) do not influence
        the computed numbers and are left out so that serial and parallel runs
        of the same experiment emit byte-identical summaries.
        """
        return {name: [value.real, value.imag] if isinstance(value, complex) else value
                for name, value in self._fields.items() if name not in ("output_dir", "workers")}

    def make_grid(self) -> Grid:
        return Grid(self.n, self.length)


# ---------------------------------------------------------------------------
# artifact emission
# ---------------------------------------------------------------------------


def emit_series(path, columns, rows) -> None:
    """Write a CSV time series: header ``t,name1,...``, 17-significant-digit
    values, LF line endings.  Empty ``rows`` produces a header-only file.
    Each row is read as Python floats through ``tolist()`` as it is
    written, so no numpy scalar is made per value and no converted copy of
    the table is held, and written with one ``%`` of a row template
    ("%.17g" gives the bytes of ``format(v, ".17g")``)."""
    columns = list(columns)
    rows = list(rows)
    for i, row in enumerate(rows):
        if len(row) != len(columns):
            raise ValueError(
                f"row {i} has {len(row)} entries, header has {len(columns)}"
            )
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(line % tuple(np.asarray(row, dtype=float).tolist()) for row in rows)


def _write_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _aborts(runs: dict) -> dict:
    """The ``aborts`` counter of the runs (a Trajectory by name): {"aborts":
    {name: {abort_reason, steps_taken}}} of the runs that aborted, and {}
    when none did, so a passing run's summary keeps its bytes."""
    aborts = {name: {"abort_reason": t.abort_reason, "steps_taken": t.meta["steps_taken"]}
              for name, t in runs.items() if t.aborted}
    return {"aborts": aborts} if aborts else {}


def _assertion(name: str, value: float, threshold: float, ok: bool) -> dict:
    return {
        "name": name,
        "value": float(value),
        "threshold": float(threshold),
        "pass": bool(ok),
    }


def _at_most(name: str, value: float, threshold: float) -> dict:
    return _assertion(name, value, threshold, value <= threshold)


def _completed(name: str, traj, t_final: float) -> dict:
    """Whether a run reached ``t_final``: the share of it reached, at most 1."""
    return _assertion(name, traj.times[-1] / t_final, 1.0, not traj.aborted)


def _initial_field(cfg: ExperimentConfig, grid: Grid, dim: int) -> np.ndarray:
    """Initial (dim, N) profile per the config's ``initial`` block, one
    weighted copy per component (weights 1, -1/2, 1/4, ... keep the
    components distinct); an amplitude whose samples overflow is a config
    error."""
    shape = cfg.initial["shape"]
    amp = cfg.initial["amplitude"]
    if shape == "bump":
        base = amp / np.cosh((grid.x - 0.5 * grid.length) / cfg.initial["width"]) ** 2
        base = base - base.mean()
    elif shape == "mode":
        base = amp * np.cos(cfg.initial["mode"] * 2.0 * np.pi * grid.x / grid.length)
    elif shape == "sine":
        base = amp * np.sin(cfg.initial["mode"] * 2.0 * np.pi * grid.x / grid.length)
    else:
        raise ConfigError(
            f"initial.shape: {shape!r} is only meaningful for the hyperbolic "
            "soliton control run"
        )
    weights = [(-0.5) ** i for i in range(dim)]
    u0 = np.stack([w * base for w in weights])
    if not np.isfinite(u0).all():
        raise ConfigError(f"initial.amplitude: {amp!r} gives non-finite initial samples")
    return u0


def _micro_steps(spec, eps: float, grid: Grid, t_final: float, snapshots: int) -> int:
    """Step count at a quarter of the stability ceiling, rounded so snapshot
    times land exactly on multiples of t_final/(snapshots-1)."""
    segments = max(1, snapshots - 1)
    cap = dt_max(spec, eps, grid)
    per_segment = int(np.ceil(t_final / segments / (0.25 * cap)))
    return per_segment * segments


# ---------------------------------------------------------------------------
# runners
# ---------------------------------------------------------------------------


def _limit_model(cfg: ExperimentConfig) -> LimitModel:
    """The canonical limit model of the config's preset; parameters whose
    limit tensor overflows are a config error."""
    try:
        return limit_equation(preset(cfg.preset_name, cfg.params or None)[0])
    except ValueError as exc:
        raise ConfigError(f"params: {exc}") from None


def _scalar_q(cfg: ExperimentConfig):
    """The canonical Q of the config's preset, which must have one component
    (the miura and hyperbolic runs)."""
    model = _limit_model(cfg)
    if model.dim != 1:
        raise ConfigError(f"preset: the {cfg.experiment} experiment needs a one-component preset")
    return model.canonical_q


def _soliton(cfg: ExperimentConfig, Q, grid: Grid) -> np.ndarray:
    """The solitary wave of speed ``cfg.speed`` along the smallest fixed
    point z of Q(z,z) = z; a speed whose wave the grid cannot hold (too
    slow, so too wide, or underflowing) is a config error."""
    z = find_fixed_point(Q)[0]
    try:
        return build_soliton(SolitonSpec(speed=cfg.speed, direction=z, q_tensor=Q), grid)
    except ValueError as exc:
        raise ConfigError(f"speed: {cfg.speed!r} gives no soliton on this grid: {exc}") from None


def _drift(model: LimitModel, u0: np.ndarray, snapshots, grid: Grid):
    """Drift of the conserved (H, M, P) of the model's (S, d, N)
    ``snapshots`` from those of u0: one row [|H - H0|/|H0|, |M - M0|/M0,
    max|P - P0|] per snapshot, and the three drift assertions on the column
    maxima (NaN if any is)."""
    h0, m0, p0 = conserved_quantities(model, u0, grid)
    rows = []
    for u in snapshots:
        h, m, p = conserved_quantities(model, u, grid)
        rows.append([abs(h - h0) / max(abs(h0), 1e-300), abs(m - m0) / max(m0, 1e-300),
                     float(np.max(np.abs(p - p0)))])
    dh, dm, dp = np.max(rows, axis=0)
    return rows, [_at_most("hamiltonian_drift_rel", dh, 1e-8),
                  _at_most("mass_drift_rel", dm, 1e-8),
                  _at_most("momentum_drift_abs", dp, 1e-10)]


def _run_kdv(cfg: ExperimentConfig, outdir: Path):
    model = _limit_model(cfg)
    grid = cfg.make_grid()
    A0 = _initial_field(cfg, grid, model.dim)
    traj = evolve_kdv(model, A0, grid, cfg.t_final, cfg.dt, n_snapshots=cfg.snapshots)

    columns, rows = ["t"], [[t] for t in traj.times]
    assertions = [_completed("run_completed", traj, cfg.t_final)]
    if model.canonical_q.is_zero:  # linear: against the exact flow of A
        A0_hat = np.fft.fft(A0, axis=-1)
        errors = []
        for row, A in zip(rows, traj.meta["snapshots"]):
            exact = np.fft.ifft(
                np.exp(1.0 / model.scale["time_factor"] * grid.symbol(3) * row[0]) * A0_hat, axis=-1
            ).real
            errors.append(l2_norm(A - exact, grid))
            row.append(errors[-1])
        columns.append("dispersion_error")
        assertions.append(_at_most("dispersion_phase_error", np.max(errors), 1e-10))
    u = traj.meta["canonical_snapshots"]
    drifts, checks = _drift(model, u[0], u, grid)
    for row, drift in zip(rows, drifts):
        row += drift
    columns += ["h_drift_rel", "m_drift_rel", "p_drift_abs"]
    assertions += checks
    emit_series(outdir / "kdv_series.csv", columns, rows)
    counters = {"kdv_steps": traj.meta["steps"], "snapshots": len(traj),
                **_aborts({"kdv": traj})}
    return assertions, counters


def _micro_series(spec, s0, kdv_traj):
    """The consumer of a microscopic run from s0, and a function that returns
    the per-snapshot columns it collected.  Each block of snapshots is taken
    to chart coordinates, with the phase branch carried across block seams,
    and gives (from one dx(phi) and one tangent gradient) ||W||, max|eps
    phi|, the almost-conserved energy, the structure deviation (relative mass
    drift for condensates, unit-norm deviation for spins) and chart
    membership; with a limit run ``kdv_traj``, also the energy proxy and the
    limit errors against it."""
    grid, eps = s0.grid, s0.eps
    mass0 = mass(spec, s0.values, grid) if spec.is_complex else None
    cols, ref = {}, None

    def consume(times, block):
        nonlocal ref
        h = extract_series(spec, block, grid, eps, phase_ref=ref)
        ref = h.phi[-1]
        dphi = grid.diff(h.phi)
        # the proxy reads dphi before almost_hamiltonian turns it into W
        out = {} if kdv_traj is None else {"energy_proxy": energy_proxy(h, dphi)}
        energy, w = almost_hamiltonian(spec, h, dphi)
        if spec.is_complex:
            dev = np.abs(mass(spec, block, grid) - mass0) / mass0
        else:
            dev = unit_norm_deviation(spec, block)
        out.update(w_norm=l2_norm(w, grid), eps_phi_inf=np.max(np.abs(eps * h.phi), axis=(-2, -1)),
                   energy=energy, structure_dev=dev, in_chart=h.valid)
        if kdv_traj is not None:
            out.update(limit_error(spec, times, h, w, kdv_traj))
        for name, value in out.items():
            cols.setdefault(name, []).append(value)

    def collected():
        return {name: np.concatenate(v) for name, v in cols.items()}

    return consume, collected


def _well_prepared(cfg: ExperimentConfig, eps: float):
    """The spec, grid and well-prepared initial state of the config at eps;
    data that leave the model chart (or its modulus range) are a config
    error."""
    _, spec = preset(cfg.preset_name, cfg.params or None)
    grid = cfg.make_grid()
    A0 = _initial_field(cfg, grid, spec.geometry.dim)
    try:
        return spec, grid, well_prepared_init(spec, A0, grid, eps)
    except ValueError as exc:
        raise ConfigError(f"initial.amplitude: {exc} (eps = {eps!r})") from None


def _prepare_micro(cfg: ExperimentConfig, eps: float, kdv_traj=None):
    """The spec, well-prepared initial state and step of one streamed
    microscopic run at eps, at a quarter of the step cap, and its series
    consumer and collected columns (:func:`_micro_series`): the micro
    experiment, or one ε-run of converge (with its limit run)."""
    spec, grid, s0 = _well_prepared(cfg, eps)
    dt = cfg.t_final / _micro_steps(spec, eps, grid, cfg.t_final, cfg.snapshots)
    return (spec, s0, dt) + _micro_series(spec, s0, kdv_traj)


def _run_micro(cfg: ExperimentConfig, outdir: Path):
    spec, s0, dt, consume, collected = _prepare_micro(cfg, cfg.eps)
    traj = evolve_micro(spec, s0, cfg.t_final, dt, cfg.snapshots, consume=consume)
    series = collected()
    columns = ["t", "w_norm", "eps_phi_inf", "energy", "structure_dev"]
    emit_series(outdir / "micro_series.csv", columns,
                np.column_stack([traj.times] + [series[c] for c in columns[1:]]))

    structure_name = "mass_drift_rel" if spec.is_complex else "unit_norm_deviation"
    in_chart = bool(series["in_chart"].all())
    assertions = [
        _completed("run_completed", traj, cfg.t_final),
        _at_most(structure_name, float(np.max(series["structure_dev"])), 1e-10),
        _assertion("stayed_in_chart", 1.0 if in_chart else 0.0, 1.0, in_chart),
    ]
    counters = {
        "micro_steps": traj.meta["steps"],
        "rhs_evaluations": traj.meta["rhs_evals"],
        "snapshots": len(traj),
        **_aborts({"micro": traj}),
    }
    return assertions, counters


def _converge_task(payload):
    """The ε-runs of the convergence experiment at the ε of one group, stepped
    in lockstep (:func:`~kdvlab.micro.evolve_group`): the serial path runs
    every ε as one group, a worker pool one ε per task, through this
    function.  Every ε-run is prepared before any steps, so data outside the
    chart are a config error before a run starts.  The payload is the
    validated config, the group's ε and the shared limit run that every
    ε-run is scored against.  Each ε-run writes its own CSV file; returns
    one result per ε, in group order.
    """
    cfg, group, kdv_traj = payload
    specs, states, dts, consumers, collected = zip(*[_prepare_micro(cfg, eps, kdv_traj)
                                                     for eps in group])
    trajs = evolve_group(specs[0], states, cfg.t_final, dts, cfg.snapshots, consumers=consumers)
    return [_converge_result(cfg, specs[0], eps, traj, series())
            for eps, traj, series in zip(group, trajs, collected)]


def _converge_result(cfg, spec, eps, traj, series):
    """The result of one ε-run of converge (its ε, its trajectory and, if it
    completed, its error figures), its CSV file written."""
    out = {"eps": eps, "traj": traj}
    path = Path(cfg.output_dir) / f"converge_eps_{eps!r}.csv"
    if traj.aborted:
        # partial artifact: the chart series of whatever was reached
        emit_series(path, ["t", "w_norm"], np.column_stack([traj.times, series["w_norm"]]))
        return out
    columns = ["t", "err_amplitude", "err_gradient", "w_norm", "eps_phi_inf", "energy_proxy",
               "energy", "structure_dev"]
    emit_series(path, columns, np.column_stack([traj.times] + [series[c] for c in columns[1:]]))
    out.update(
        sup_err_amplitude=float(np.max(series["err_amplitude"])),
        sup_err_gradient=float(np.max(series["err_gradient"])),
        sup_w=float(np.max(series["w_norm"])),
        max_eps_phi=float(np.max(series["eps_phi_inf"])),
        chart_radius=chart_radius(spec),
        in_chart=bool(series["in_chart"].all()),
    )
    return out


def _run_converge(cfg: ExperimentConfig, outdir: Path):
    model = _limit_model(cfg)
    grid = cfg.make_grid()
    kdv_traj = evolve_kdv(model, _initial_field(cfg, grid, model.dim), grid, cfg.t_final, cfg.dt,
                          n_snapshots=cfg.snapshots)
    if kdv_traj.aborted:  # no limit reference to score the ε-runs against
        for eps in cfg.eps_list:  # data outside the chart stay a config error
            _well_prepared(cfg, eps)
        assertions = [_completed("limit_run_completed", kdv_traj, cfg.t_final)]
        return assertions, {"kdv_steps": kdv_traj.meta["steps"], **_aborts({"kdv": kdv_traj})}
    if cfg.workers > 1:
        from multiprocessing import Pool  # only parallel runs pay for this import
        # eps_list decreases, so reversed it hands out the costliest run (the
        # smallest eps) first; the results are put back in eps_list order
        payloads = [(cfg, [eps], kdv_traj) for eps in cfg.eps_list[::-1]]
        with Pool(processes=min(cfg.workers, len(payloads))) as pool:
            results = [r for rs in pool.map(_converge_task, payloads, chunksize=1)[::-1]
                       for r in rs]
    else:
        results = _converge_task((cfg, cfg.eps_list, kdv_traj))

    completed = [r for r in results if not r["traj"].aborted]
    all_done = len(completed) == len(results)
    assertions = [
        _assertion("all_runs_completed", float(len(completed)), float(len(results)),
                   all_done)
    ]
    if all_done:
        # np.max, not max: a NaN anywhere makes the maximum NaN, which fails
        def ratios(key):
            vals = np.array([r[key] for r in results])
            return np.max(vals[1:] / vals[:-1])

        assertions += [_assertion(name, r, 1.0, r < 1.0) for name, r in (
            ("amplitude_error_strictly_decreasing", ratios("sup_err_amplitude")),
            ("gradient_error_strictly_decreasing", ratios("sup_err_gradient")),
            ("w_norm_decreasing", ratios("sup_w")))]
        phase = np.max([r["max_eps_phi"] for r in results])
        radius = results[0]["chart_radius"]
        assertions.append(_assertion("phase_within_chart", phase, radius,
                                     all(r["in_chart"] for r in results) and phase < radius))
    runs = {f"{r['eps']!r}": r["traj"] for r in results}
    counters = {
        "kdv_steps": kdv_traj.meta["steps"],
        "micro_steps": {eps: traj.meta["steps"] for eps, traj in runs.items()},
        **_aborts(runs),
    }
    return assertions, counters


def _run_soliton(cfg: ExperimentConfig, outdir: Path):
    Q = _limit_model(cfg).canonical_q
    if Q.is_zero:
        raise ConfigError(
            "preset: the soliton experiment needs a preset with a nonzero "
            f"nonlinearity; {cfg.preset_name!r} has none"
        )
    model = LimitModel(Q, 1.0)  # the canonical soliton, at unit scale
    grid = cfg.make_grid()
    u0 = _soliton(cfg, Q, grid)
    traj = evolve_kdv(model, u0, grid, cfg.t_final, cfg.dt, n_snapshots=cfg.snapshots)

    snapshots = traj.meta["snapshots"]
    drifts, checks = _drift(model, u0, snapshots, grid)
    # the exact wave u0(x + c_w t), the soliton moving left at its speed
    norm = l2_norm(u0, grid)
    shapes = [l2_norm(u - fourier_shift(u0, grid, -cfg.speed * t), grid) / norm
              for t, u in zip(traj.times, snapshots)]
    emit_series(outdir / "soliton_series.csv",
                ["t", "h_drift_rel", "m_drift_rel", "p_drift_abs", "shape_error"],
                [[t, *drift, shape] for t, drift, shape in zip(traj.times, drifts, shapes)])

    assertions = [
        _completed("run_completed", traj, cfg.t_final),
        *checks,
        _at_most("shape_error", np.max(shapes), 1e-4),
    ]
    counters = {"kdv_steps": traj.meta["steps"], "snapshots": len(traj),
                **_aborts({"kdv": traj})}
    return assertions, counters


def _run_miura(cfg: ExperimentConfig, outdir: Path):
    Q = _scalar_q(cfg)
    grid = cfg.make_grid()
    v0 = _initial_field(cfg, grid, 1)
    discrepancy, aborted = miura_crosscheck(Q, v0, grid, cfg.t_final, cfg.dt,
                                            n_snapshots=cfg.snapshots)
    defect = miura_condition(complex_q_d2(cfg.d2_alpha, cfg.d2_beta))
    emit_series(outdir / "miura_series.csv",
                ["t", "crosscheck_discrepancy", "d2_condition_defect"],
                [[cfg.t_final, discrepancy, defect]])
    assertions = [
        _assertion("scalar_crosscheck", discrepancy, 1e-6, not aborted and discrepancy <= 1e-6),
        _at_most("d2_condition", defect, 1e-12),
    ]
    steps, _ = step_plan(cfg.t_final, cfg.dt)
    counters = {"kdv_steps": steps, "mkdv_steps": steps, **_aborts(aborted)}
    return assertions, counters


def _run_hyperbolic(cfg: ExperimentConfig, outdir: Path):
    Q = _scalar_q(cfg)
    grid = cfg.make_grid()
    run_model = LimitModel(Q, cfg.delta)
    if cfg.initial["shape"] == "soliton":
        u0 = _soliton(cfg, Q, grid)
    else:
        u0 = _initial_field(cfg, grid, 1)
    traj = evolve_kdv(run_model, u0, grid, cfg.t_final, cfg.dt, n_snapshots=cfg.snapshots,
                      record_gradient=True)

    grad_t, grad_v = traj.meta["grad_history"]
    emit_series(outdir / "hyperbolic_series.csv", ["t", "max_gradient"],
                [[t, g] for t, g in zip(grad_t, grad_v)])

    # characteristics: the scalar flux speed is 2 q u, so the first crossing
    # time from smooth data u0 is 1 / max(-d/dx (2 q u0))
    q = float(Q.coeffs[0, 0, 0])
    slope = grid.diff(2.0 * q * u0[0])
    steepening = float(np.max(-slope))
    oracle = 1.0 / steepening if steepening > 0 else None

    # the breakdown is the run's gradient blow-up at abort_time; a run that
    # went non-finite has not been seen to break down
    broke = traj.abort_reason == "gradient blow-up"
    if cfg.delta == 0.0 and oracle is not None:
        rel_gap = (abs(traj.abort_time - oracle) / oracle) if broke else np.inf
        assertions = [
            _assertion("breakdown_detected", 1.0 if broke else 0.0, 1.0, broke),
            _assertion("breakdown_time_near_characteristics",
                       rel_gap if np.isfinite(rel_gap) else 1e30, 0.2,
                       broke and rel_gap <= 0.2),
        ]
    else:
        assertions = [
            _assertion("no_breakdown", 1.0 if traj.aborted else 0.0, 0.0, not traj.aborted),
        ]
    counters = {"kdv_steps": traj.meta["steps"], "kdv_steps_taken": traj.meta["steps_taken"],
                "gradient_checks": len(grad_t), **_aborts({"kdv": traj})}
    return assertions, counters


_RUNNERS = {
    "kdv": _run_kdv,
    "micro": _run_micro,
    "converge": _run_converge,
    "soliton": _run_soliton,
    "miura": _run_miura,
    "hyperbolic": _run_hyperbolic,
}


def run_experiment(cfg: ExperimentConfig) -> int:
    """Run one experiment, write its artifacts, return a process exit status.

    Artifacts land in ``cfg.output_dir``: the experiment's CSV series,
    ``summary.json`` (configuration echo + assertions + work counters, byte
    deterministic) and ``timings.json`` (wall clock).  The status is 0 exactly
    when every assertion passed.  The artifacts of an earlier run of the
    same experiment (``summary.json``, ``timings.json`` and its own series:
    ``<experiment>_series.csv``, every ``converge_eps_*.csv`` for converge)
    are removed first, so a run that ends in a config error leaves none and
    a run over fewer ε leaves no stale series; no other file is touched.
    """
    outdir = Path(cfg.output_dir)
    outdir.mkdir(parents=True, exist_ok=True)
    stale = [outdir / name for name in ("summary.json", "timings.json",
                                        f"{cfg.experiment}_series.csv")]
    if cfg.experiment == "converge":
        stale += outdir.glob("converge_eps_*.csv")
    for path in stale:
        path.unlink(missing_ok=True)
    started = time.perf_counter()
    assertions, counters = _RUNNERS[cfg.experiment](cfg, outdir)
    elapsed = time.perf_counter() - started
    summary = {
        "experiment": cfg.experiment,
        "config_echo": cfg.echo(),
        "assertions": assertions,
        "timings": counters,
    }
    _write_json(outdir / "summary.json", summary)
    _write_json(outdir / "timings.json", {"wall_seconds": elapsed})
    return 0 if all(a["pass"] for a in assertions) else 1
