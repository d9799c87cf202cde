"""Tests for the chart diagnostics: coordinate extraction/reconstruction,
limit observables, the almost-conserved energy, truncated-system residuals,
and the micro-vs-limit error measures."""

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from kdvlab import experiments
from kdvlab.experiments import _micro_series
from kdvlab.grid import SNAPSHOT_BLOCK, Grid, l2_norm
from kdvlab.hydro import (
    HydroState,
    almost_hamiltonian,
    energy_proxy,
    extract_series,
    limit_error,
)
from kdvlab.kdv import evolve_kdv
from kdvlab.micro import MicroState, dt_max, evolve_micro, well_prepared_init
from kdvlab.models import (
    chart_assemble,
    chart_extract,
    dphi_matrix,
    limit_equation,
    normal_coupling,
    preset,
)
import oracles
from oracles import hydro_residual, observables, record_micro, replay_blocks

TOL = {
    "roundtrip": 1e-12,
    "exact_chart": 1e-12,
    "observables": 1e-12,
    "w_prepared": 1e-7,  # Nyquist-tail floor of the sech^2 data, ~3e-9
    "h_identity": 0.01,  # |H - leading| / eps^2 (a wrong sign would be ~0.1/eps^2)
    "h_zero_tensor": 0.01,  # |H - leading| <= this * eps^4 when F1 = II = 0
    "residual_ratio": 0.75,
    "residual_inflation": 10.0,
    "residual_scale": 5e-4,
    "zero_data": 1e-10,
}

PRESETS = [
    ("GP_SCALAR", None),
    ("GP_COUPLED", {"lam": 1.3, "gamma": 0.2}),
    ("LL_EASY_PLANE", None),
    ("LL_EASY_CONE", {"alpha": 0.9, "theta0": 1.0, "beta": 0.15}),
    ("AF_CHAIN", None),
]


def _bump(grid, amp=0.3, width=2.0):
    rho = amp / np.cosh((grid.x - 0.5 * grid.length) / width) ** 2
    return rho - rho.mean()


def _prepared(kind, params, grid, eps, amp=0.2):
    geom, spec = preset(kind, params)
    comps = [_bump(grid, amp=amp)]
    if geom.dim == 2:
        comps.append(-0.5 * _bump(grid, amp=amp))
    state = well_prepared_init(spec, np.stack(comps), grid, eps)
    return geom, spec, state


# ---------------------------------------------------------------------------
# chart coordinates
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind,params", PRESETS)
def test_extract_reconstruct_roundtrip(kind, params):
    grid = Grid(256, 8 * np.pi)
    _, spec, state = _prepared(kind, params, grid, eps=0.2)
    h = extract_series(spec, state.values, grid, state.eps)
    assert h.valid
    back = chart_assemble(spec, h.phi, h.n, h.eps)
    assert np.max(np.abs(back - state.values)) <= TOL["roundtrip"]


def test_condensate_ground_state_has_zero_coordinates():
    grid = Grid(64, 2 * np.pi)
    _, spec = preset("GP_SCALAR")
    h = extract_series(spec, np.ones((1, 64), complex), grid, 0.2)
    assert h.valid
    assert np.max(np.abs(h.phi)) == 0.0
    assert np.max(np.abs(h.n)) == 0.0


def test_modulated_condensate_coordinates():
    # u = (1 + eps^2 * 0.2) e^{i eps 0.5}: phase coordinate 0.5, amplitude 0.2
    eps, grid = 0.1, Grid(64, 2 * np.pi)
    _, spec = preset("GP_SCALAR")
    u = (1.0 + eps**2 * 0.2) * np.exp(1j * eps * 0.5) * np.ones((1, 64), complex)
    h = extract_series(spec, u, grid, eps)
    assert np.max(np.abs(h.phi - 0.5)) <= TOL["exact_chart"]
    assert np.max(np.abs(h.n - 0.2)) <= TOL["exact_chart"]


def test_tilted_spin_coordinates():
    # in-plane tilt by 0.3 rad at eps = 0.1: phase coordinate 3.0, no amplitude
    grid = Grid(64, 2 * np.pi)
    _, spec = preset("LL_EASY_PLANE")
    gam = np.tile(np.array([[np.cos(0.3)], [np.sin(0.3)], [0.0]]), 64)
    h = extract_series(spec, gam, grid, 0.1)
    assert np.max(np.abs(h.phi - 3.0)) <= TOL["exact_chart"]
    assert np.max(np.abs(h.n)) <= TOL["exact_chart"]


def test_phase_reference_selects_branch():
    # the same state sits on every 2*pi/eps phase branch; phase_ref picks one
    eps, grid = 0.2, Grid(64, 2 * np.pi)
    _, spec = preset("GP_SCALAR")
    u = np.exp(1j * eps * 0.5) * np.ones((1, 64), complex)
    principal = extract_series(spec, u, grid, eps)
    assert np.max(np.abs(principal.phi - 0.5)) <= TOL["exact_chart"]
    ref = (0.5 + 2.0 * np.pi / eps) * np.ones((1, 64))
    shifted = extract_series(spec, u, grid, eps, phase_ref=ref)
    assert np.max(np.abs(shifted.phi - ref)) <= TOL["exact_chart"]


# ---------------------------------------------------------------------------
# limit observables
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind,params", PRESETS)
def test_pure_amplitude_state_observables(kind, params):
    # with phi = 0 the gradient part vanishes: W = -A, U = A, A = -2 lam s n
    grid = Grid(128, 2 * np.pi)
    geom, spec = preset(kind, params)
    n = np.stack([0.1 * np.cos((i + 1) * grid.x) for i in range(geom.dim)])
    h = HydroState(grid, 0.2, np.zeros((geom.dim, 128)), n, True)
    obs = observables(spec, h)
    a_ref = -2.0 * geom.lam * (normal_coupling(spec) * n)
    assert np.max(np.abs(obs.A - a_ref)) <= TOL["observables"]
    assert np.max(np.abs(obs.W + a_ref)) <= TOL["observables"]
    assert np.max(np.abs(obs.U - a_ref)) <= TOL["observables"]


@pytest.mark.parametrize("kind,params", PRESETS)
def test_observables_carry_the_chart_jacobian(kind, params):
    # (U + W)/(2c) is DPhi dx(phi): the radial Jacobi factor of the
    # antiferromagnet chart, the identity for the circle charts
    grid = Grid(128, 2 * np.pi)
    geom, spec = preset(kind, params)
    eps = 0.2
    phi = np.stack([3.0 * np.sin((i + 1) * grid.x + 0.3) for i in range(geom.dim)])
    n = np.stack([0.5 * np.cos((i + 2) * grid.x) for i in range(geom.dim)])
    obs = observables(spec, HydroState(grid, eps, phi, n, True))
    ref = grid.diff(phi)
    if spec.kind == "AF_CHAIN":
        ref = np.einsum("ijN,jN->iN", dphi_matrix(phi, eps), ref)
    got = (obs.U + obs.W) / (2.0 * geom.c)
    assert np.max(np.abs(got - ref)) <= TOL["observables"] * np.max(np.abs(ref))


@pytest.mark.parametrize("kind", ["GP_SCALAR", "LL_EASY_PLANE"])
def test_pure_phase_state_observables(kind):
    # with n = 0 (and no rotational block) W = U = c * dx(phi)
    grid = Grid(128, 2 * np.pi)
    geom, spec = preset(kind)
    phi = 0.3 * np.sin(grid.x)[None, :]
    h = HydroState(grid, 0.2, phi, np.zeros((1, 128)), True)
    obs = observables(spec, h)
    w_ref = geom.c * 0.3 * np.cos(grid.x)[None, :]
    assert np.max(np.abs(obs.W - w_ref)) <= TOL["observables"]
    assert np.max(np.abs(obs.U - w_ref)) <= TOL["observables"]
    assert np.max(np.abs(obs.A)) <= TOL["observables"]


@pytest.mark.parametrize("kind,params", PRESETS)
def test_well_prepared_data_starts_near_the_limit_manifold(kind, params):
    grid = Grid(256, 8 * np.pi)
    _, spec, state = _prepared(kind, params, grid, eps=0.2)
    h = extract_series(spec, state.values, grid, state.eps)
    w0 = l2_norm(observables(spec, h).W, grid)
    assert w0 <= TOL["w_prepared"]


# ---------------------------------------------------------------------------
# almost-conserved energy
# ---------------------------------------------------------------------------


def test_zero_state_has_zero_energy():
    grid = Grid(64, 2 * np.pi)
    _, spec = preset("GP_SCALAR")
    h = HydroState(grid, 0.2, np.zeros((1, 64)), np.zeros((1, 64)), True)
    H, w = almost_hamiltonian(spec, h, grid.diff(h.phi))
    assert H == 0.0 and np.max(np.abs(w)) == 0.0


@pytest.mark.parametrize("kind,params", PRESETS)
def test_energy_matches_w_norm_to_second_order(kind, params):
    # H = ||W||^2/(4 lam) + O(eps^2): the eps^-2 ratio must stay small as eps
    # halves (a wrong sign anywhere in H would leave an O(1) mismatch)
    grid = Grid(256, 8 * np.pi)
    geom, _ = preset(kind, params)
    for eps in (0.2, 0.1):
        _, spec, state = _prepared(kind, params, grid, eps)
        h = extract_series(spec, state.values, grid, state.eps)
        H, w = almost_hamiltonian(spec, h, grid.diff(h.phi))
        leading = l2_norm(w, grid)**2 / (4.0 * geom.lam)
        assert abs(H - leading) / eps**2 <= TOL["h_identity"]


@pytest.mark.parametrize("kind,params", PRESETS)
def test_energy_leading_term_is_the_observables_w_norm(kind, params):
    # almost_hamiltonian forms W from its own tangent gradient; it must be
    # the W of the observables' definitions to the last bit
    grid = Grid(128, 2 * np.pi)
    geom, spec = preset(kind, params)
    phi = np.stack([2.0 * np.sin((i + 1) * grid.x + 0.3) for i in range(geom.dim)])
    n = np.stack([0.5 * np.cos((i + 2) * grid.x) for i in range(geom.dim)])
    h = HydroState(grid, 0.2, phi, n, True)
    assert np.array_equal(almost_hamiltonian(spec, h, grid.diff(h.phi))[1], observables(spec, h).W)


@pytest.mark.parametrize("kind", ["LL_EASY_PLANE", "AF_CHAIN"])
def test_energy_identity_sharpens_without_curvature_terms(kind):
    # when F1 and the shape terms vanish the mismatch is pure eps^4 gradient
    grid = Grid(256, 8 * np.pi)
    for eps in (0.2, 0.1, 0.05):
        geom, spec, state = _prepared(kind, None, grid, eps)
        h = extract_series(spec, state.values, grid, state.eps)
        H, w = almost_hamiltonian(spec, h, grid.diff(h.phi))
        assert abs(H - l2_norm(w, grid)**2 / (4.0 * geom.lam)) <= TOL["h_zero_tensor"] * eps**4


# ---------------------------------------------------------------------------
# truncated-system residuals
# ---------------------------------------------------------------------------


def _residual_run(kind, grid, eps, T, n_snapshots):
    geom, spec = preset(kind)
    s0 = well_prepared_init(spec, _bump(grid)[None, :], grid, eps)
    cap = dt_max(spec, eps, grid)
    # near the step ceiling the centered time difference cannot resolve the
    # fast oscillation; an eighth of it keeps differencing noise subdominant
    steps = int(np.ceil(T / (cap / 8.0) / 10.0)) * 10
    traj = record_micro(spec, s0, T=T, dt=T / steps, n_snapshots=n_snapshots)
    assert not traj.aborted
    return spec, traj


def test_condensate_residual_shrinks_and_ablation_inflates():
    grid = Grid(256, 8 * np.pi)
    totals = {}
    for eps in (0.2, 0.1):
        spec, traj = _residual_run("GP_SCALAR", grid, eps, T=0.5, n_snapshots=11)
        res = hydro_residual(spec, traj)
        ablated = hydro_residual(spec, traj, ablate_singular=True)
        totals[eps] = res["sup_total"]
        assert ablated["sup_total"] >= TOL["residual_inflation"] * res["sup_total"]
    assert totals[0.2] <= TOL["residual_scale"]
    assert totals[0.1] <= TOL["residual_ratio"] * totals[0.2]


def test_spin_residual_shrinks_and_ablation_inflates():
    grid = Grid(128, 8 * np.pi)
    totals = {}
    for eps in (0.2, 0.1):
        spec, traj = _residual_run("LL_EASY_PLANE", grid, eps, T=0.25, n_snapshots=6)
        res = hydro_residual(spec, traj)
        ablated = hydro_residual(spec, traj, ablate_singular=True)
        totals[eps] = res["sup_total"]
        assert ablated["sup_total"] >= TOL["residual_inflation"] * res["sup_total"]
    assert totals[0.2] <= TOL["residual_scale"]
    assert totals[0.1] <= TOL["residual_ratio"] * totals[0.2]


def test_ground_state_residual_vanishes():
    grid = Grid(64, 2 * np.pi)
    _, spec = preset("GP_SCALAR")
    s0 = MicroState(spec, grid, 0.2, np.ones((1, 64), complex))
    traj = record_micro(spec, s0, T=0.01, dt=1e-4, n_snapshots=3)
    res = hydro_residual(spec, traj)
    assert res["sup_total"] <= 1e-14


@pytest.mark.parametrize(
    "kind,params",
    [
        ("GP_COUPLED", {"lam": 1.3, "gamma": 0.2}),
        ("LL_EASY_CONE", {"alpha": 0.9, "theta0": 1.0, "beta": 0.15}),
        ("AF_CHAIN", None),
    ],
)
def test_residual_rejects_unsupported_models(kind, params):
    grid = Grid(64, 2 * np.pi)
    _, spec, state = _prepared(kind, params, grid, eps=0.2)
    steps = {"GP_COUPLED": 15, "LL_EASY_CONE": 20, "AF_CHAIN": 23}[kind]  # just under dt_max
    traj = record_micro(spec, state, T=0.01, dt=0.01 / steps, n_snapshots=2)
    with pytest.raises(ValueError, match="not supported"):
        hydro_residual(spec, traj)


# ---------------------------------------------------------------------------
# micro vs limit
# ---------------------------------------------------------------------------


def test_limit_errors_decrease_with_eps(converge_run):
    # the scalar-condensate converge run of the acceptance suite: eps 0.2,
    # 0.1 and 0.05 against the shared limit run
    series = converge_run("gp_scalar").series
    for name in ("err_amplitude", "err_gradient", "w_norm"):
        sups = [np.max(cols[name]) for cols in series.values()]
        assert all(b < a for a, b in zip(sups, sups[1:])), name
    assert np.max(series[0.2]["err_amplitude"]) <= 1.2e-3


def test_sweep_stays_inside_the_chart(converge_run):
    run = converge_run("gp_scalar")
    check = run.checks["phase_within_chart"]
    assert check["pass"]  # every snapshot in the chart
    for cols in run.series.values():
        assert np.max(cols["eps_phi_inf"]) < check["threshold"]


def test_w_norm_excess_scales_like_eps_fifth(converge_run):
    # sup_t ||W||^2 <= ||W(0)||^2 + C eps^5: the excess ratio under eps -> eps/2
    excess = [float(np.max(cols["w_norm"] ** 2) - cols["w_norm"][0] ** 2)
              for cols in converge_run("gp_scalar").series.values()]
    assert all(b <= 0.25 * a for a, b in zip(excess, excess[1:]))


def test_energy_proxy_stays_bounded(converge_run):
    for cols in converge_run("gp_scalar").series.values():
        proxy = cols["energy_proxy"]
        assert np.max(proxy) <= 3.0 * proxy[0]


def test_energy_drift_shrinks_with_eps(converge_run):
    drifts = [np.max(np.abs(cols["energy"] - cols["energy"][0]))
              for cols in converge_run("gp_scalar").series.values()]
    assert all(b <= 0.75 * a for a, b in zip(drifts, drifts[1:]))


def test_zero_data_gives_zero_limit_error():
    grid = Grid(128, 2 * np.pi)
    geom, spec = preset("GP_SCALAR")
    zero = np.zeros((1, 128))
    s0 = well_prepared_init(spec, zero, grid, 0.2)
    traj = record_micro(spec, s0, T=0.1, dt=1e-4, n_snapshots=3)
    kdv_traj = evolve_kdv(limit_equation(geom), zero, grid, 0.1, 1e-3, n_snapshots=3)
    err = replay_blocks(traj, _micro_series(spec, s0, kdv_traj))
    for name in ("err_amplitude", "err_gradient", "w_norm"):
        assert np.max(err[name]) <= TOL["zero_data"]


def test_limit_error_requires_matching_times():
    grid = Grid(128, 2 * np.pi)
    geom, spec = preset("GP_SCALAR")
    zero = np.zeros((1, 128))
    s0 = well_prepared_init(spec, zero, grid, 0.2)
    traj = record_micro(spec, s0, T=0.1, dt=1e-4, n_snapshots=3)
    kdv_traj = evolve_kdv(limit_equation(geom), zero, grid, 0.07, 1e-3, n_snapshots=3)
    with pytest.raises(ValueError, match="time grids"):
        replay_blocks(traj, _micro_series(spec, s0, kdv_traj))


def test_limit_error_pairs_snapshots_by_time_and_rejects_one_off_its_times():
    # a limit run that aborted keeps an off-schedule last snapshot (here at
    # t = 0.0625 after 0.05), so snapshots pair by time, not by index; a
    # micro snapshot with no limit counterpart raises instead of being
    # scored against the nearest limit snapshot
    grid, eps = Grid(32, 2 * np.pi), 0.2
    _, spec = preset("GP_SCALAR")
    limit = np.array([k * np.sin(grid.x)[None, :] for k in (1.0, 2.0, 3.0)])
    kdv_traj = SimpleNamespace(times=[0.0, 0.05, 0.0625], meta={"snapshots": limit})
    zero = np.zeros((2, 1, 32))
    h = HydroState(grid, eps, zero, zero, [True, True])
    err = limit_error(spec, [0.0, 0.0625], h, zero, kdv_traj)
    np.testing.assert_allclose(err["err_amplitude"], [l2_norm(limit[0], grid),
                                                      l2_norm(limit[2], grid)], rtol=1e-12)
    with pytest.raises(ValueError, match=r"^time grids do not match: micro snapshot "
                                         r"t=0\.06 has no limit-run counterpart "
                                         r"\(nearest 0\.0625\)$"):
        limit_error(spec, [0.0, 0.06], h, zero, kdv_traj)
    assert np.array_equal(kdv_traj.meta["snapshots"], limit)  # shifted copies only


def test_proxy_of_flat_state_counts_only_gradients():
    grid = Grid(64, 2 * np.pi)
    _, spec = preset("GP_SCALAR")
    h = HydroState(grid, 0.2, np.full((1, 64), 0.7), np.zeros((1, 64)), True)
    assert energy_proxy(h, grid.diff(h.phi)) == 0.0


# ---------------------------------------------------------------------------
# snapshot blocks
# ---------------------------------------------------------------------------


def _per_snapshot_diagnostics(spec, traj):
    """The per-snapshot formulas the blocked pass replaced, one snapshot at a
    time: chart extraction with the previous phi as phase reference, the
    almost-conserved energy and ||W|| from the tangent gradient, max|eps phi|,
    the structure deviation and chart membership."""
    g = spec.geometry
    grid, eps = traj.grid, traj.eps
    C = normal_coupling(spec) * np.eye(g.dim)  # the coupling matrix s I
    f1_nu = -np.einsum("ijm,mk->ijk", g.f1, C)

    def mass(vals):
        return float(np.sum(np.sum(np.abs(vals) ** 2, axis=0)) * grid.spacing)

    m0 = mass(traj.values[0]) if spec.is_complex else None
    out = {k: [] for k in ("w_norm", "eps_phi_inf", "energy", "structure_dev", "in_chart")}
    ref = None
    for vals in traj.values:
        phi, n, in_chart = chart_extract(spec, vals, eps, phase_ref=ref)
        ref = phi
        X = grid.diff(phi)
        if spec.kind == "AF_CHAIN":
            X = np.einsum("ijN,jN->iN", dphi_matrix(phi, eps), X)
        Cn = C.T @ n
        corr = np.einsum("ijm,iN,mN->jN", g.ii_perp, X, Cn)
        half = X + 0.5 * eps**2 * corr
        density = (
            g.lam * np.sum(n**2, axis=0)
            + 0.25 * eps**4 * np.sum(grid.diff(n) ** 2, axis=0)
            + (eps**2 / 3.0) * np.einsum("ijk,iN,jN,kN->N", f1_nu, n, n, n)
            + 0.25 * np.sum((X + eps**2 * corr) ** 2, axis=0)
            + np.sum((g.c * half + np.einsum("ij,jN->iN", g.i0b0, half)) * Cn, axis=0)
        )
        W = g.c * X + np.einsum("ij,jN->iN", g.i0b0, X) + 2.0 * g.lam * Cn
        out["energy"].append(float(np.sum(density) * grid.spacing))
        out["w_norm"].append(float(np.sqrt(np.sum(np.abs(W) ** 2) * grid.spacing)))
        out["eps_phi_inf"].append(float(np.max(np.abs(eps * phi))))
        if spec.is_complex:
            out["structure_dev"].append(abs(mass(vals) - m0) / m0)
        else:
            dev = 0.0
            for start in range(0, vals.shape[0], 3):
                norms = np.linalg.norm(vals[start:start + 3], axis=0)
                dev = max(dev, float(np.max(np.abs(norms - 1.0))))
            out["structure_dev"].append(dev)
        out["in_chart"].append(bool(in_chart))
    return {k: np.array(v) for k, v in out.items()}


def _seventy_snapshot_run(kind, params, series):
    # 70 snapshots: two full blocks and a partial one; the run streamed
    # through the consumer series(spec, state) returns with its collected
    # columns, and the same run recorded whole
    grid = Grid(64, 8 * np.pi)
    eps = 0.2
    _, spec, state = _prepared(kind, params, grid, eps, amp=0.4)
    steps = 2 * 69
    T = steps * 0.25 * dt_max(spec, eps, grid)
    consume, columns = series(spec, state)
    traj = evolve_micro(spec, state, T, T / steps, 70, consume=consume)
    got = columns()
    record = record_micro(spec, state, T=T, dt=T / steps, n_snapshots=70)
    assert not traj.aborted
    assert len(traj) == 70 and 2 * SNAPSHOT_BLOCK < 70 < 3 * SNAPSHOT_BLOCK
    assert traj.times == record.times
    return spec, got, record


@pytest.mark.parametrize("kind,params", PRESETS)
def test_blocked_diagnostics_match_the_per_snapshot_formulas(kind, params):
    spec, got, traj = _seventy_snapshot_run(
        kind, params, lambda spec, state: _micro_series(spec, state, None))
    want = _per_snapshot_diagnostics(spec, traj)
    assert np.array_equal(got["in_chart"], want["in_chart"]) and want["in_chart"].all()
    for name in ("w_norm", "eps_phi_inf", "energy", "structure_dev"):
        np.testing.assert_allclose(got[name], want[name], rtol=1e-14, atol=0, err_msg=name)
    assert np.ptp(want["w_norm"]) > 0  # the run moves: the comparison is not vacuous


@pytest.mark.parametrize("kind,params", PRESETS)
def test_blocked_limit_error_matches_the_per_snapshot_formulas(kind, params):
    # the converge columns of a block, from one dx(phi): against a zero
    # reference, err_amplitude is ||A|| and err_gradient ||A + W||
    def against_zero(spec, state):
        zero = np.zeros((spec.geometry.dim, state.grid.n_points))
        ref = SimpleNamespace(times=[], meta={})
        consume, collected = _micro_series(spec, state, ref)

        def against_block(times, block):
            ref.times, ref.meta["snapshots"] = times, np.array([zero] * len(times))
            consume(times, block)

        return against_block, collected

    spec, err, traj = _seventy_snapshot_run(kind, params, against_zero)
    grid = traj.grid
    ref = None
    for i, vals in enumerate(traj.values):
        h = extract_series(spec, vals, grid, traj.eps, phase_ref=ref)
        ref = h.phi
        obs = observables(spec, h)
        want = {
            "err_amplitude": l2_norm(obs.A, grid),
            "err_gradient": l2_norm(obs.A + obs.W, grid),
            "energy_proxy": energy_proxy(h, grid.diff(h.phi)),
        }
        for name, value in want.items():
            assert abs(err[name][i] - value) <= 1e-14 * abs(value), (name, i)


def test_phase_branch_carries_across_block_seams(monkeypatch):
    # the global phase advances 0.9 rad per snapshot, so the principal branch
    # wraps every few snapshots, across block seams too; the run consumer
    # must shift each snapshot like the sequential phase_ref chain: its phi,
    # and the column max|eps phi|, which grows by 0.9 per snapshot and would
    # fall back at a seam where the branch restarts
    eps, grid = 0.2, Grid(32, 2 * np.pi)
    _, spec = preset("GP_SCALAR")
    count = 3 * SNAPSHOT_BLOCK + 5
    vals = np.exp(1j * (0.9 * np.arange(count)[:, None, None] + 0.3 * np.sin(grid.x)))
    phis = []

    def extract(*args, **kwargs):
        h = extract_series(*args, **kwargs)
        phis.append(h.phi)
        return h

    monkeypatch.setattr(experiments, "extract_series", extract)
    consume, collected = _micro_series(spec, MicroState(spec, grid, eps, vals[0]), None)
    for start in range(0, count, SNAPSHOT_BLOCK):
        rows = slice(start, start + SNAPSHOT_BLOCK)
        consume(list(range(count))[rows], vals[rows])
    phi, got = np.concatenate(phis), collected()["eps_phi_inf"]

    period = 2.0 * np.pi
    shifts, ref_mean = [], None
    for i, v in enumerate(vals):
        principal = chart_extract(spec, v, eps)[0] * eps
        mean = float(np.mean(principal))
        turns = 0.0 if ref_mean is None else np.rint((ref_mean - mean) / period)
        shifts.append(period * turns)
        ref_mean = mean + period * turns
        assert np.max(np.abs(phi[i] * eps - principal - shifts[-1])) <= 1e-12
        assert abs(got[i] - np.max(np.abs(principal + shifts[-1]))) <= 1e-12
    seams = range(SNAPSHOT_BLOCK, count, SNAPSHOT_BLOCK)
    assert any(shifts[i] != shifts[i - 1] for i in seams)  # a wrap sits on a seam
    assert len(set(shifts)) > 10
    np.testing.assert_allclose(np.diff(np.mean(phi * eps, axis=(-2, -1))), 0.9, atol=1e-12)
    np.testing.assert_allclose(np.diff(got), 0.9, atol=1e-12)


def test_dense_micro_experiment_holds_one_block_of_snapshots(tmp_path, monkeypatch):
    # the benchmark's 2001-snapshot coupled-condensate micro experiment,
    # stepping and diagnostics: the consumer is never handed more than one
    # block, and the whole experiment allocates at most 4 MB at peak (keeping
    # every snapshot took 18 MB)
    sizes = []
    real_evolve = experiments.evolve_micro

    def evolve(*args, consume, **kwargs):
        def counted(times, block):
            sizes.append(len(block))
            consume(times, block)
        return real_evolve(*args, consume=counted, **kwargs)

    monkeypatch.setattr(experiments, "evolve_micro", evolve)
    raw = experiments.default_config("micro")
    raw.update(preset="gp_coupled", output_dir=str(tmp_path))
    raw["time"]["snapshots"] = 2001
    cfg = experiments.ExperimentConfig.from_dict(raw)
    tracemalloc.start()
    try:
        status = experiments.run_experiment(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert status == 0
    assert sum(sizes) == 2001 and max(sizes) == SNAPSHOT_BLOCK
    assert len((tmp_path / "micro_series.csv").read_text().splitlines()) == 2002
    assert peak <= 4 * 2**20


def _first_block(kind, params):
    # the first block of a streamed micro run on the micro experiment's grid
    # at its eps (N = 256, L = 8 pi, eps = 0.2): SNAPSHOT_BLOCK snapshots,
    # one every 2 steps at a quarter of the step cap
    grid, eps = Grid(256, 8 * np.pi), 0.2
    _, spec, state = _prepared(kind, params, grid, eps, amp=0.3)
    dt = 0.25 * dt_max(spec, eps, grid)
    blocks = []
    evolve_micro(spec, state, 2 * SNAPSHOT_BLOCK * dt, dt, n_snapshots=SNAPSHOT_BLOCK + 1,
                 consume=lambda times, block: blocks.append(block.copy()))
    assert len(blocks[0]) == SNAPSHOT_BLOCK
    return spec, grid, eps, blocks[0]


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("kind,params", PRESETS + [("GP_COUPLED", None), ("GP_COUPLED", {"gamma": 0.7})])
def test_almost_hamiltonian_matches_the_einsum_oracle_bitwise(kind, params):
    # the contractions over the geometry tensors' nonzero entries keep
    # einsum's products and summation order: H and W have the same bits, on
    # a real block and on one state (gp_coupled with gamma != 0 has five
    # nonzero F1 entries, the other families at most one per row)
    spec, grid, eps, block = _first_block(kind, params)
    h = extract_series(spec, block, grid, eps)
    for states in (h, list(h)[-1]):
        energy, w = almost_hamiltonian(spec, states, states.grid.diff(states.phi))
        want_energy, want_w = oracles.almost_hamiltonian(spec, states)
        assert _same_bits(energy, want_energy) and _same_bits(w, want_w)
    assert np.ptp(h.n) > 0 and np.ptp(w) > 0  # the data are not trivial


@pytest.mark.parametrize("kind", ["GP_SCALAR", "GP_COUPLED"])
def test_chart_extract_of_a_condensate_block_allocates_under_three_blocks(kind):
    # the moduli, the angles, their differences with the jump test and the
    # unwrapped angles: the traced peak stays under three times the block's
    # bytes (measured 2.5x for one component and 2.1x for two; with
    # np.unwrap's full-array correction and cumulative sum it was 4.5x and
    # 4.3x)
    spec, _, eps, block = _first_block(kind, None)
    chart_extract(spec, block, eps)
    tracemalloc.start()
    try:
        chart_extract(spec, block, eps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * block.nbytes
