"""Acceptance suite: one test per release criterion.

Each test prints a single ``criterion NN (...): PASS/FAIL`` line (run with
``pytest tests/test_acceptance.py -s`` to see the lines on success) and then
asserts, so a red criterion fails the suite.  Criteria 06, 07 and 09 read
the artifacts of the ``converge`` runner, one run per family, shared through
the session fixture ``converge_run`` (``conftest.py``).
"""

import json
from time import perf_counter

import numpy as np
import pytest

from kdvlab.analysis import (
    build_soliton,
    complex_q_d2,
    find_fixed_point,
    miura_condition,
    miura_crosscheck,
    solitary_profile,
)
from kdvlab.experiments import ExperimentConfig, default_config, run_experiment
from kdvlab.grid import Grid, fourier_shift, l2_norm
from kdvlab.kdv import LimitModel, conserved_quantities, evolve_kdv
from kdvlab.micro import dt_max, well_prepared_init
from kdvlab.models import limit_equation, limit_tensor, preset
from conftest import CONVERGE_FAMILIES
from oracles import hydro_residual, record_micro, soliton_ode_residual

TOL = {
    "coeff": 1e-12,
    "dispersion": 1e-10,
    "h_drift": 1e-8,
    "m_drift": 1e-8,
    "p_drift": 1e-10,
    "shape": 1e-4,
    "ode_residual": 1e-8,
    "negative_control": 0.1,
    "miura_scalar": 1e-6,
    "miura_pass": 1e-12,
    "miura_fail": 1e-3,
    "drift_ratio": 0.75,
    "residual_ratio": 0.75,
    "ablation_factor": 10.0,
    "structure": 1e-10,
    "oracle_window": 0.2,
}


def _verdict(num: int, label: str, ok: bool, detail: str = ""):
    line = f"criterion {num:2d} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    assert ok, line


def _bump(grid, amp=0.3, width=2.0):
    rho = amp / np.cosh((grid.x - 0.5 * grid.length) / width) ** 2
    return rho - rho.mean()


@pytest.fixture(scope="module")
def condensate_residuals():
    """Residuals of the first-order system on matched data, with and without
    the singular transport blocks (time step far below the stability ceiling
    so the centered time differencing resolves the fast phase)."""
    grid = Grid(256, 8 * np.pi)
    geom, spec = preset("GP_SCALAR")
    A0 = _bump(grid)[None, :]
    T = 0.5
    out = {}
    for eps in (0.2, 0.1):
        cap = dt_max(spec, eps, grid)
        steps = int(np.ceil(T / (cap / 8.0) / 10.0)) * 10
        s0 = well_prepared_init(spec, A0, grid, eps)
        traj = record_micro(spec, s0, T=T, dt=T / steps, n_snapshots=11)
        assert not traj.aborted
        out[eps] = {
            "full": hydro_residual(spec, traj)["sup_total"],
            "ablated": hydro_residual(spec, traj, ablate_singular=True)["sup_total"],
        }
    return out


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_model_coefficients():
    started = perf_counter()
    ok = True

    ok = ok and abs(limit_tensor(preset("GP_SCALAR")[0])[0, 0, 0] + 3.0) <= TOL["coeff"]

    for kind in ("LL_EASY_PLANE", "AF_CHAIN"):
        geom = preset(kind)[0]
        ok = ok and np.max(np.abs(limit_tensor(geom))) <= TOL["coeff"]
        ok = ok and limit_equation(geom).canonical_q.norm() <= TOL["coeff"]

    rng = np.random.default_rng(2026)
    for _ in range(10):
        alpha = float(rng.uniform(0.2, 3.0))
        beta = float(rng.uniform(-2.0, 2.0))
        theta0 = float(rng.uniform(0.15, np.pi - 0.15))
        geom, _ = preset("LL_EASY_CONE",
                         {"alpha": alpha, "beta": beta, "theta0": theta0})
        s, co = np.sin(theta0), np.cos(theta0)
        b = alpha * s * co + beta * s**3
        expected = 1.5 * co / s + 3.0 * b / (2.0 * geom.lam)
        got = limit_tensor(geom)[0, 0, 0]
        ok = ok and abs(got - expected) <= TOL["coeff"] * max(1.0, abs(expected))

    lam, gamma = 1.3, 0.7
    G = limit_tensor(preset("GP_COUPLED", {"lam": lam, "gamma": gamma})[0])
    for k in range(2):
        ok = ok and abs(G[k, k, k] + 3.0) <= TOL["coeff"]
    for idx in ((0, 0, 1), (0, 1, 0), (1, 0, 0)):
        ok = ok and abs(G[idx] - 4.0 * gamma / lam) <= TOL["coeff"]

    elapsed = perf_counter() - started
    ok = ok and elapsed < 1.0
    _verdict(1, "model coefficients", ok, f"{elapsed:.2f}s")


def test_criterion_02_dispersion_exactness():
    worst = 0.0
    for kind in ("LL_EASY_PLANE", "AF_CHAIN"):
        geom, _ = preset(kind)
        model = limit_equation(geom)
        # the limit run of the kdv experiment, read back in A's units
        cfg = ExperimentConfig.from_dict(dict(
            default_config("kdv"), preset=kind.lower(), grid={"n": 128, "length": 2 * np.pi},
            time={"t_final": 1.0, "dt": 1e-3, "snapshots": 5}))
        grid = cfg.make_grid()
        base = np.cos(2.0 * np.pi * grid.x / grid.length)
        A0 = np.stack([(-0.5) ** i * base for i in range(geom.dim)])
        traj = evolve_kdv(model, A0, grid, cfg.t_final, cfg.dt, n_snapshots=cfg.snapshots)
        k3 = grid.wavenumbers ** 3
        k3[grid.n_points // 2] = 0.0
        hat = np.fft.fft(A0, axis=-1)
        for t, u in zip(traj.times, traj.meta["snapshots"]):
            ref = np.fft.ifft(np.exp(-1j * k3 * t / (8.0 * geom.c)) * hat, axis=-1).real
            worst = max(worst, l2_norm(u - ref, grid))
    ok = worst <= TOL["dispersion"]
    _verdict(2, "dispersion exactness", ok, f"phase error {worst:.2e}")


def test_criterion_03_soliton_conservation():
    # the canonical soliton solves the canonical equation, a unit-scale model
    Q = limit_equation(preset("GP_SCALAR")[0]).canonical_q
    model = LimitModel(Q, 1.0)
    z = find_fixed_point(Q)[0]
    grid = Grid(512, 16 * np.pi)
    speed = 4.0
    u0 = build_soliton(speed, z, grid)
    traj = evolve_kdv(model, u0, grid, 2.0, 1e-3, n_snapshots=5)
    h0, m0, p0 = conserved_quantities(model, u0, grid)
    dh = dm = dp = shape = 0.0
    for t, u in zip(traj.times, traj.meta["snapshots"]):
        h, m, p = conserved_quantities(model, u, grid)
        dh = max(dh, abs(h - h0) / abs(h0))
        dm = max(dm, abs(m - m0) / m0)
        dp = max(dp, float(np.max(np.abs(p - p0))))
        # against the exact wave u0(x + c_w t)
        exact = fourier_shift(u0, grid, -speed * t)
        shape = max(shape, l2_norm(u - exact, grid) / l2_norm(u0, grid))
    ok = (not traj.aborted and dh <= TOL["h_drift"] and dm <= TOL["m_drift"]
          and dp <= TOL["p_drift"] and shape <= TOL["shape"])
    _verdict(3, "soliton conservation", ok,
             f"dH {dh:.2e}, dM {dm:.2e}, dP {dp:.2e}, shape {shape:.2e}")


def test_criterion_04_soliton_ode_residual():
    model = limit_equation(preset("GP_SCALAR")[0])
    Q = model.canonical_q
    z = find_fixed_point(Q)[0]
    grid = Grid(1024, 64 * np.pi)
    res = soliton_ode_residual(Q, z, grid)
    # two-thirds of the solitary amplitude: must fail loudly
    wrong = lambda xi: (2.0 / 3.0) * solitary_profile(xi)
    control = soliton_ode_residual(Q, z, grid, profile=wrong)
    ok = res <= TOL["ode_residual"] and control > TOL["negative_control"]
    _verdict(4, "soliton ODE residual", ok,
             f"residual {res:.2e}, detuned control {control:.2e}")


def test_criterion_05_miura_transform():
    model = limit_equation(preset("GP_SCALAR")[0])
    grid = Grid(512, 2 * np.pi)
    v0 = (0.5 * np.sin(grid.x))[None, :]
    discrepancy, aborted = miura_crosscheck(model.canonical_q, v0, grid, 0.5, 1e-3, n_snapshots=11)
    ok = not aborted and discrepancy <= TOL["miura_scalar"]
    worst_equal, best_unequal = 0.0, np.inf
    for a, b in ((1.0, 1.0), (2.0, -2.0), (1.0 + 0.5j, np.sqrt(1.25))):
        worst_equal = max(worst_equal, miura_condition(complex_q_d2(a, b)))
    for a, b in ((1.0, 2.0), (0.5, 1.0)):
        best_unequal = min(best_unequal, miura_condition(complex_q_d2(a, b)))
    ok = ok and worst_equal <= TOL["miura_pass"] and best_unequal > TOL["miura_fail"]
    _verdict(5, "Miura transform", ok,
             f"scalar {discrepancy:.2e}, equal-moduli {worst_equal:.2e}, "
             f"unequal {best_unequal:.2e}")


def test_criterion_06_long_wave_convergence(converge_run):
    ok = True
    details = []
    for family in CONVERGE_FAMILIES:
        run = converge_run(family)
        sups = {key: [float(np.max(cols[key])) for cols in run.series.values()]
                for key in ("err_amplitude", "err_gradient", "w_norm", "eps_phi_inf")}
        for key in ("err_amplitude", "err_gradient", "w_norm"):
            ok = ok and all(b < a for a, b in zip(sups[key], sups[key][1:]))
        radius = run.checks["phase_within_chart"]["threshold"]
        ok = ok and run.status == 0 and max(sups["eps_phi_inf"]) < radius
        details.append(family + " amp " + " > ".join(f"{v:.1e}" for v in sups["err_amplitude"]))
    _verdict(6, "long-wave convergence", ok, "; ".join(details))


def test_criterion_07_almost_conservation(converge_run):
    drifts = [float(np.max(np.abs(cols["energy"] - cols["energy"][0])))
              for cols in converge_run("gp_scalar").series.values()]
    ratios = [b / a for a, b in zip(drifts, drifts[1:])]
    ok = all(r <= TOL["drift_ratio"] for r in ratios)
    _verdict(7, "almost-conservation", ok,
             "halving ratios " + ", ".join(f"{r:.3f}" for r in ratios))


def test_criterion_08_hydrodynamic_residual(condensate_residuals):
    full = {eps: condensate_residuals[eps]["full"] for eps in (0.2, 0.1)}
    ratio = full[0.1] / full[0.2]
    inflation = min(
        condensate_residuals[eps]["ablated"] / condensate_residuals[eps]["full"]
        for eps in (0.2, 0.1)
    )
    ok = ratio <= TOL["residual_ratio"] and inflation >= TOL["ablation_factor"]
    _verdict(8, "hydrodynamic residual", ok,
             f"ratio {ratio:.3f}, ablation x{inflation:.0f}")


def test_criterion_09_structure_preservation(converge_run):
    # structure_dev is the relative mass drift of a condensate and the
    # unit-norm deviation of a spin chain
    worst = {"mass": 0.0, "norm": 0.0}
    for family in CONVERGE_FAMILIES:
        key = "mass" if family.startswith("gp_") else "norm"
        for cols in converge_run(family).series.values():
            worst[key] = max(worst[key], float(np.max(cols["structure_dev"])))
    ok = max(worst.values()) <= TOL["structure"]
    _verdict(9, "structure preservation", ok,
             f"mass drift {worst['mass']:.2e}, unit-norm deviation {worst['norm']:.2e}")


def test_criterion_10_hyperbolic_breakdown(tmp_path):
    steep = default_config("hyperbolic")
    steep["output_dir"] = str(tmp_path / "steep")
    rc_steep = run_experiment(ExperimentConfig.from_dict(steep))
    checks = {
        a["name"]: a
        for a in json.loads((tmp_path / "steep" / "summary.json").read_text())["assertions"]
    }
    gap = checks["breakdown_time_near_characteristics"]["value"]

    control = default_config("hyperbolic")
    control.update(delta=1.0, output_dir=str(tmp_path / "control"))
    control["grid"] = {"n": 512, "length": 16 * np.pi}
    control["time"] = {"t_final": 1.0, "dt": 1e-3, "snapshots": 11}
    control["initial"] = {"shape": "soliton"}
    rc_control = run_experiment(ExperimentConfig.from_dict(control))
    intact = {
        a["name"]: a["pass"]
        for a in json.loads((tmp_path / "control" / "summary.json").read_text())["assertions"]
    }

    ok = (rc_steep == 0 and checks["breakdown_detected"]["pass"]
          and gap <= TOL["oracle_window"] and rc_control == 0 and intact["no_breakdown"])
    _verdict(10, "hyperbolic breakdown", ok,
             f"oracle gap {gap:.3f}, dispersive control intact {intact['no_breakdown']}")


def test_criterion_11_determinism(tmp_path):
    base = default_config("converge")
    base["grid"] = {"n": 128, "length": 8 * np.pi}
    base["time"] = {"t_final": 0.25, "dt": 1e-3, "snapshots": 6}
    base["eps_list"] = [0.2, 0.1]

    outputs = {}
    for name in ("serial", "repeat"):
        cfg = dict(base, output_dir=str(tmp_path / name))
        rc = run_experiment(ExperimentConfig.from_dict(cfg))
        assert rc == 0
        outputs[name] = (tmp_path / name / "summary.json").read_bytes()

    ok = outputs["serial"] == outputs["repeat"]
    for eps in (0.2, 0.1):
        series = {
            name: (tmp_path / name / f"converge_eps_{eps}.csv").read_bytes()
            for name in outputs
        }
        ok = ok and series["serial"] == series["repeat"]
    _verdict(11, "determinism", ok,
             f"summary {len(outputs['serial'])} bytes identical across "
             "repeated runs")
