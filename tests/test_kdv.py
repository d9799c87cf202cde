"""Tests for the vector KdV core: tensors, rhs, evolution, conserved quantities."""

import collections
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdvlab import kdv
from kdvlab.analysis import _mkdv_nonlinear
from kdvlab.grid import Dealias, Grid, integrate, snapshot_steps, step_plan
from kdvlab.kdv import (
    LimitModel,
    QTensor,
    _linear_symbol,
    _nonlinear_rhs,
    BLOWUP_MULTIPLE,
    bilinear_apply,
    conserved_quantities,
    evolve_kdv,
    symmetrize,
)
from kdvlab.experiments import ExperimentConfig, default_config
from kdvlab.models import limit_equation, limit_tensor, preset
from oracles import advance_linear, ifrk4_step, raw_nonlinear


def canonical_scalar(q=1.0, dispersion=1.0):
    return LimitModel(QTensor([[[q]]]), dispersion)


def kdv_rhs(model, u, grid):
    """The right-hand side evolve_kdv integrates, in physical space: the
    Fourier-diagonal linear part plus the nonlinear part, both applied to
    rfft coefficients in the state convention (Nyquist mode halved)."""
    split = Dealias.nyquist_split(grid.n_points, len(u))
    v = np.fft.rfft(u, axis=-1) * split
    out = _linear_symbol(model, grid) * v + _nonlinear_rhs(model, grid)(v, np.empty_like(v))
    return np.fft.irfft(out / split, grid.n_points, axis=-1)


@pytest.fixture
def grid():
    return Grid(128, 2 * np.pi)


# -- QTensor -----------------------------------------------------------------


def test_qtensor_symmetrizes_and_records_defect():
    raw = np.zeros((2, 2, 2))
    raw[0, 1, 0] = 1.0  # asymmetric input
    Q = QTensor(raw)
    c = Q.coeffs
    for perm in [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]:
        assert np.max(np.abs(c - c.transpose(perm))) < 1e-15
    assert Q.symmetry_defect > 0.1


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=8, max_size=8))
def test_qtensor_symmetric_for_any_input(vals):
    Q = QTensor(np.array(vals).reshape(2, 2, 2))
    c = Q.coeffs
    assert np.max(np.abs(c - c.transpose(2, 1, 0))) < 1e-12
    assert np.max(np.abs(c - c.transpose(0, 2, 1))) < 1e-12


def test_qtensor_rejects_bad_shape():
    with pytest.raises(ValueError):
        QTensor(np.zeros((2, 3, 2)))


# -- bilinear_apply ------------------------------------------------------------


def test_bilinear_apply_scalar_constant(grid):
    two = 2.0 * np.ones((1, grid.n_points))
    out = bilinear_apply(QTensor([[[1.0]]]).coeffs, two, two)
    assert np.max(np.abs(out - 4.0)) < 1e-12


def test_bilinear_apply_exact_for_low_modes():
    # sin(3x)*sin(5x) = (cos 2x - cos 8x)/2, all modes below 2N/3
    g = Grid(64, 2 * np.pi)
    prod = bilinear_apply(np.ones((1, 1, 1)), np.sin(3 * g.x)[None], np.sin(5 * g.x)[None])
    expected = 0.5 * (np.cos(2 * g.x) - np.cos(8 * g.x))
    assert np.max(np.abs(prod[0] - expected)) < 1e-12


def test_bilinear_apply_kills_aliased_modes():
    # on a tiny grid, the aliased image of a high product mode must not appear
    g = Grid(16, 2 * np.pi)
    a = np.cos(6 * g.x)[None]
    prod = bilinear_apply(np.ones((1, 1, 1)), a, a)
    spec = np.fft.fft(prod[0]) / g.n_points
    # cos^2(6x) has modes 0 and +-12; 12 aliases to -4 on N=16 without dealiasing
    assert abs(spec[4]) < 1e-13
    assert abs(spec[0] - 0.5) < 1e-13


def _trig_field(grid, seed, dim=2, modes=5):
    r = np.random.default_rng(seed)
    comps = np.zeros((dim, grid.n_points))
    for c in range(dim):
        for m in range(1, modes):
            comps[c] += r.normal() * np.cos(m * grid.x) + r.normal() * np.sin(m * grid.x)
    return comps


def test_bilinear_apply_integral_permutation_invariant():
    # int Q(u,v).w dx is symmetric under all six permutations of (u,v,w)
    grid = Grid(64, 2 * np.pi)
    Q = QTensor(np.random.default_rng(4).normal(size=(2, 2, 2)))
    u, v, w = (_trig_field(grid, seed) for seed in (1, 2, 3))
    vals = [
        integrate(np.sum(bilinear_apply(Q.coeffs, a, b) * c, axis=0), grid)
        for a, b, c in itertools.permutations([u, v, w])
    ]
    assert max(vals) - min(vals) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=27, max_size=27))
def test_symmetrize_idempotent(vals):
    once, _ = symmetrize(np.array(vals).reshape(3, 3, 3))
    twice, defect = symmetrize(once)
    assert np.max(np.abs(twice - once)) <= 1e-13
    assert defect <= 1e-13


@settings(max_examples=25, deadline=None)
@given(
    coeffs=st.lists(st.floats(-10, 10), min_size=8, max_size=8),
    seed=st.integers(0, 2**32 - 1),
)
def test_bilinear_apply_symmetric_tensor_commutes(coeffs, seed):
    grid = Grid(32, 2 * np.pi)
    sym, _ = symmetrize(np.array(coeffs).reshape(2, 2, 2))
    u = _trig_field(grid, seed)
    v = _trig_field(grid, seed + 1)
    a = bilinear_apply(sym, u, v)
    b = bilinear_apply(sym, v, u)
    assert np.max(np.abs(a - b)) <= 1e-13 * max(1.0, float(np.max(np.abs(a))))


# -- right-hand side -----------------------------------------------------------


def test_rhs_airy_only(grid):
    model = canonical_scalar(0.0)
    out = kdv_rhs(model, np.sin(3 * grid.x)[None, :], grid)
    # dxxx sin(3x) = -27 cos(3x)
    assert np.max(np.abs(out[0] + 27 * np.cos(3 * grid.x))) < 1e-9


def test_rhs_constant_state_is_static(grid):
    model = canonical_scalar(-1.0)
    out = kdv_rhs(model, 0.7 * np.ones((1, grid.n_points)), grid)
    assert np.max(np.abs(out)) < 1e-12


def test_rhs_raw_scalar_matches_quadrature(grid):
    # 2 dt rho = (1/4) dxxx rho - 3 rho dx rho, evaluated at rho = sin(x):
    # rhs = (-(1/4) cos x - 3 sin x cos x) / 2, through the canonical limit
    # model: u(tau) = s rho(8 tau) gives d rho/dt = (du/dtau) / (8 s)
    model = limit_equation(preset("GP_SCALAR")[0])
    s, factor = model.scale["amplitude"], model.scale["time_factor"]
    out = kdv_rhs(model, s * np.sin(grid.x)[None, :], grid) / (factor * s)
    expected = (-0.25 * np.cos(grid.x) - 3 * np.sin(grid.x) * np.cos(grid.x)) / 2.0
    assert np.max(np.abs(out[0] - expected)) < 1e-11


def _full_fft_bilinear(tensor, a, b):
    """Dealiased product by a full-FFT 3/2 pad, a pointwise product and a
    truncation, with the Nyquist coefficient split and recombined."""
    n = a.shape[-1]
    m = int(np.ceil(1.5 * n))
    m += m % 2
    half = n // 2

    def pad(comps):
        spec = np.fft.fft(comps, axis=-1)
        out = np.zeros(comps.shape[:-1] + (m,), dtype=complex)
        out[..., :half] = spec[..., :half]
        out[..., m - half + 1 :] = spec[..., half + 1 :]
        out[..., half] = out[..., m - half] = 0.5 * spec[..., half]
        return np.fft.ifft(out, axis=-1).real * (m / n)

    prod = np.einsum("ijk,im,jm->km", tensor, pad(a), pad(b))
    spec = np.fft.fft(prod, axis=-1)
    out = np.concatenate([spec[..., :half], spec[..., m - half :]], axis=-1)
    out[..., half] = spec[..., half] + spec[..., m - half]
    return np.fft.ifft(out, axis=-1).real * (n / m)


def _full_fft_kdv_rhs(model, u, grid):
    """The right-hand side written with full complex transforms in physical space."""
    sym = model.dispersion * grid.symbol(3)
    linear = np.fft.ifft(sym * np.fft.fft(u, axis=-1), axis=-1).real
    return linear - grid.diff(_full_fft_bilinear(model.canonical_q.coeffs, u, u))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    log_n=st.integers(4, 7),
    dim=st.integers(1, 3),
)
def test_kdv_rhs_matches_full_fft_formula_property(seed, log_n, dim):
    rng = np.random.default_rng(seed)
    grid = Grid(2**log_n, rng.uniform(2.0, 20.0))
    n = grid.n_points
    # real band-limited field: random modes up to n/3 and a Nyquist component
    spec = np.zeros((dim, n // 2 + 1), dtype=complex)
    kmax = n // 3
    spec[:, : kmax + 1] = rng.normal(size=(dim, kmax + 1)) + 1j * rng.normal(size=(dim, kmax + 1))
    spec[:, n // 2] = rng.normal(size=dim)
    u = np.fft.irfft(spec, n) * rng.uniform(0.5, 4.0)
    model = LimitModel(dispersion=rng.uniform(-2, 2), canonical_q=QTensor(rng.normal(size=(dim,) * 3)))
    got = kdv_rhs(model, u, grid)
    want = _full_fft_kdv_rhs(model, u, grid)
    assert np.max(np.abs(got - want)) <= 1e-12 * float(np.max(np.abs(want)))


# -- evolve_kdv ----------------------------------------------------------------


def test_evolve_zero_stays_zero(grid):
    model = canonical_scalar(-1.0)
    traj = evolve_kdv(model, np.zeros((1, grid.n_points)), grid, 0.5, 1e-2)
    assert not traj.aborted
    assert np.max(np.abs(traj.meta["snapshots"])) < 1e-14


def test_evolve_rejects_complex_state(grid):
    u0 = np.exp(1j * grid.x)[None, :]
    with pytest.raises(ValueError, match="real"):
        evolve_kdv(canonical_scalar(-1.0), u0, grid, 0.1, 1e-2)
    for model in (canonical_scalar(-1.0), canonical_scalar(0.0)):
        with pytest.raises(ValueError, match="real"):
            conserved_quantities(model, u0, grid)


@pytest.mark.parametrize("shape", [(64,), (2, 64), (1, 65)])
def test_evolve_rejects_state_of_wrong_shape(shape):
    # the state is (model.dim, N): a bare row, a second component or a
    # sample count off the grid is refused before any step
    grid = Grid(64, 2 * np.pi)
    u0 = np.zeros(shape)
    with pytest.raises(ValueError, match=r"\(1, 64\)"):
        evolve_kdv(canonical_scalar(-1.0), u0, grid, 0.1, 1e-2)
    with pytest.raises(ValueError, match=r"\(1, 64\)"):
        conserved_quantities(canonical_scalar(-1.0), u0, grid)


@pytest.mark.parametrize("case", ["canonical", "gp_coupled"])
def test_evolve_transforms_per_step(fft_calls, case):
    # the state stays in coefficient space: a step without a snapshot makes
    # 8 transforms in the stepper (an irfft and an rfft per stage); the
    # gradient guard's bound screens it with no transform, and a run that
    # records the gradient makes 1 irfft of the d rows per step for it
    grid = Grid(64, 2 * np.pi)
    if case == "canonical":
        model = canonical_scalar(-1.0)
    else:
        model = limit_equation(preset("gp_coupled")[0])
    u0 = 0.1 * np.stack([np.sin(grid.x), np.cos(grid.x)][: model.dim])

    def transforms(steps, record):
        before = fft_calls.copy()
        evolve_kdv(model, u0, grid, steps * 1e-3, 1e-3, n_snapshots=2, record_gradient=record)
        return fft_calls - before

    # rows per call: a stage pads the d rows of u and truncates the d rows
    # of Q(u, u)
    d = model.dim
    want = collections.Counter({("rfft", d): 40, ("irfft", d): 40})
    assert transforms(20, False) - transforms(10, False) == want
    want["irfft", d] += 10
    assert transforms(20, True) - transforms(10, True) == want


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 3),
    n=st.integers(8, 65),
    modes=st.integers(1, 4),
    log_scale=st.floats(-6.0, 6.0),
    length=st.floats(0.5, 50.0),
)
def test_gradient_bound_is_at_least_the_max_gradient_property(seed, d, n, modes, log_scale,
                                                              length):
    # the guard's screen bounds max|dx u| over the d rows from above, on
    # band-limited states of even and odd n in the state convention (Nyquist
    # mode halved), the Nyquist mode of even n drawn among the others; to
    # within rounding far inside the guard's 1e-9 margin, as a single mode
    # peaking on a grid point makes the two equal
    rng = np.random.default_rng(seed)
    grid = Grid(n, length)
    spec = np.zeros((d, n // 2 + 1), complex)
    for row in spec:
        k = rng.choice(np.arange(n // 2 + 1), size=min(modes, n // 2 + 1), replace=False)
        row[k] = rng.normal(size=len(k)) + 1j * rng.normal(size=len(k))
        row[k[0]] = 10.0 ** log_scale * np.exp(1j * rng.uniform(0, 2 * np.pi))
    spec[:, 0] = spec[:, 0].real
    if n % 2 == 0:
        spec[:, -1] = spec[:, -1].real
    u = np.fft.irfft(spec, n, axis=-1)
    v = np.fft.rfft(u, axis=-1) * Dealias.nyquist_split(n, d)
    assert np.max(np.abs(grid.diff(u))) <= kdv._gradient_bound(grid, d)(v) * (1 + 1e-12)


@pytest.mark.parametrize("form,dim", [("canonical", 1), ("canonical", 2), ("mkdv", 1), ("mkdv", 2)])
def test_ifrk4_steps_allocate_only_the_new_state(monkeypatch, form, dim):
    # once the run has built its factors, workspace and stages, each of 200
    # IF-RK4 steps at N = 512 allocates the coefficients it returns and small
    # objects, and the gradient guard small objects only, whether its bound
    # screens the step or the run records max|dx u| exactly.  The rise of the
    # traced memory within a call is measured against what it starts with,
    # since freed Python objects kept on free lists stay traced
    grid = Grid(512, 16 * np.pi)
    u0 = 0.3 * np.stack([np.sin((j + 1) * grid.x / 8) for j in range(dim)])
    tensor = 0.3 * np.random.default_rng(dim).normal(size=(dim,) * 3)
    step_rises, guard_rises = [], []

    def traced(call, rises, returned=lambda result: 0):
        def wrapper(*args):
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            result = call(*args)
            rises.append(tracemalloc.get_traced_memory()[1] - held - returned(result))
            return result
        return wrapper

    run = kdv._run
    monkeypatch.setattr(kdv, "ifrk4_step", traced(kdv.ifrk4_step, step_rises, lambda v: v.nbytes))
    monkeypatch.setattr(kdv, "_run", lambda *args, monitor: run(*args, monitor=traced(monitor, guard_rises)))
    if form == "mkdv":  # the run of the mKdV leg of miura_crosscheck
        Q = QTensor(tensor)
        start = lambda record: kdv._evolve_ifrk4(grid.rsymbol(3), _mkdv_nonlinear(Q, grid), u0,
                                                 grid, 0.2, 1e-3, 5, 1, record)
    else:
        start = lambda record: evolve_kdv(LimitModel(QTensor(tensor), 1.0), u0, grid, 0.2,
                                          1e-3, 5, record_gradient=record)
    tracemalloc.start()
    try:
        trajs = [start(record) for record in (False, True)]
    finally:
        tracemalloc.stop()
    assert not any(traj.aborted for traj in trajs)
    assert len(step_rises) == len(guard_rises) == 400
    # measured on numpy 2.4: 1.7 kB over the new coefficients (2.2 kB for
    # the d = 2 canonical einsum) and 1.1 kB in the guard; a broadcast or
    # strided ufunc operand adds a buffer of its output's size (9.3 kB at
    # d = 2), as the (n//2+1,) factors and symbols of a d = 2 run did
    assert max(step_rises) <= 3072
    assert max(guard_rises) <= 2048


def test_evolve_linear_matches_advance(grid):
    model = canonical_scalar(0.0)
    u0 = np.cos(2 * grid.x)[None, :]
    T = 1.0
    traj = evolve_kdv(model, u0, grid, T, 1e-2)
    exact = advance_linear(u0, grid.symbol(3), T)
    err = np.max(np.abs(traj.meta["snapshots"][-1] - exact))
    assert err < 1e-10


def test_evolve_conservation_smooth():
    # canonical run, smooth data: relative drift of H and M <= 1e-8,
    # P drift <= 1e-10 absolute
    grid = Grid(256, 2 * np.pi)
    model = canonical_scalar(-1.0)
    u0 = (0.5 * np.sin(grid.x) + 0.1 * np.cos(2 * grid.x))[None, :]
    h0, m0, p0 = conserved_quantities(model, u0, grid)
    traj = evolve_kdv(model, u0, grid, 1.0, 1e-3)
    assert not traj.aborted
    h1, m1, p1 = conserved_quantities(model, traj.meta["snapshots"][-1], grid)
    assert abs(h1 - h0) / abs(h0) < 1e-8
    assert abs(m1 - m0) / m0 < 1e-8
    assert np.max(np.abs(p1 - p0)) < 1e-10


def test_evolve_time_reversal():
    grid = Grid(128, 2 * np.pi)
    model = canonical_scalar(-1.0)
    u0 = 0.4 * np.sin(grid.x)[None, :]
    fwd = evolve_kdv(model, u0, grid, 0.5, 1e-3)
    back = evolve_kdv(model, fwd.meta["snapshots"][-1], grid, 0.5, -1e-3)
    err = np.max(np.abs(back.meta["snapshots"][-1] - u0))
    assert err < 1e-8


def test_evolve_rejects_zero_dt(grid):
    u0 = 0.4 * np.sin(grid.x)[None, :]
    with pytest.raises(ValueError, match="dt"):
        evolve_kdv(canonical_scalar(-1.0), u0, grid, 0.5, 0.0)


@pytest.mark.parametrize("kind,params", [("gp_scalar", {}), ("gp_coupled", {"gamma": 0.7})],
                         ids=["gp_scalar", "gp_coupled"])
def test_limit_run_maps_back_to_raw_oracle_steps(kind, params):
    # the limit run of an experiment integrates the canonical u = s A over
    # t/(8c) and reads A = u/s back at the times of the step plan of t; the
    # raw form 2c dA/dt = (1/4) dxxx A + G(dx A, A), stepped by the oracle
    # IF-RK4 on the rfft coefficients of A, gives the same A to rounding
    # (measured: 4.6e-15 of max|A0|)
    raw = default_config("kdv")
    raw.update(preset=kind, params=params, grid={"n": 64, "length": 2 * np.pi},
               time={"t_final": 0.3, "dt": 1e-3, "snapshots": 4})
    cfg = ExperimentConfig.from_dict(raw)
    geom = preset(cfg.preset_name, cfg.params)[0]
    model, grid = limit_equation(geom), cfg.make_grid()
    A0 = 0.3 * np.stack([(-0.5) ** i * np.cos(grid.x) for i in range(model.dim)])
    traj = evolve_kdv(model, A0, grid, cfg.t_final, cfg.dt, n_snapshots=cfg.snapshots)
    assert not traj.aborted and traj.meta["steps"] == 300
    assert traj.times == [k * 1e-3 for k in (0, 100, 200, 300)]
    assert np.array_equal(traj.meta["snapshots"][0], A0)

    c = geom.c
    e_half = np.exp(grid.rsymbol(3) / (8.0 * c) * 0.5e-3)
    nonlin = raw_nonlinear(limit_tensor(geom), c, grid)
    v, want = np.fft.rfft(A0, axis=-1), [A0]
    for step in range(1, 301):
        v = ifrk4_step(v, e_half, nonlin, 1e-3, e_half * e_half)
        if step % 100 == 0:
            want.append(np.fft.irfft(v, grid.n_points, axis=-1))
    err = np.max(np.abs(traj.meta["snapshots"] - np.array(want)))
    assert err <= 1e-13 * np.max(np.abs(A0))


# the five families' limit models (the easy cone at the benchmark's parameters)
LIMIT_PRESETS = [("GP_SCALAR", None), ("GP_COUPLED", None), ("LL_EASY_PLANE", None),
                 ("LL_EASY_CONE", {"alpha": 1.0, "theta0": 1.0}), ("AF_CHAIN", None)]


def _check_change_of_variables(model, A0, grid, T, dt, n_snapshots):
    """evolve_kdv of a limit model in A's units against the unit-scale run of
    the canonical u = s A0 over T/f, with f and s the model's scale; returns
    the run in A's units."""
    f, s = model.scale["time_factor"], model.scale["amplitude"]
    steps, step = step_plan(T, dt)
    traj = evolve_kdv(model, A0, grid, T, dt, n_snapshots, record_gradient=True)
    unit = evolve_kdv(LimitModel(model.canonical_q, 1.0), s * A0, grid,
                      T / f, step / f, n_snapshots, record_gradient=True)
    u = unit.meta["snapshots"]
    assert np.array_equal(traj.meta["canonical_snapshots"], u)
    assert np.array_equal(traj.meta["snapshots"][1:], u[1:] / s)
    assert np.array_equal(traj.meta["snapshots"][0], A0)
    assert (traj.aborted, traj.abort_reason) == (unit.aborted, unit.abort_reason)
    assert traj.meta["steps"] == steps
    taken = traj.meta["steps_taken"]
    assert taken == unit.meta["steps_taken"]
    # the times, abort time and gradient history in A's units
    finite = traj.abort_reason != "non-finite state"
    snaps = [k for k in snapshot_steps(steps, n_snapshots)[1] if k < taken]
    if finite:  # the last step, or the step the gradient guard stopped on
        snaps.append(taken)
    assert traj.times == [k * step for k in snaps]
    assert traj.abort_time == (taken * step if traj.aborted else None)
    grad_t, grad_v = traj.meta["grad_history"]
    assert np.array_equal(grad_t, np.arange(taken + finite) * step)
    assert np.array_equal(grad_v, unit.meta["grad_history"][1])
    return traj


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(LIMIT_PRESETS),
    log_n=st.integers(4, 6),
    amplitude=st.floats(-2.0, 0.5),
    T=st.floats(1e-3, 0.1),
    steps=st.integers(1, 120),
    backward=st.booleans(),
    n_snapshots=st.integers(2, 9),
)
def test_evolve_kdv_applies_the_change_of_variables_property(
        seed, family, log_n, amplitude, T, steps, backward, n_snapshots):
    # u(tau) = s A(f tau): a run in A's units is the unit-scale run of s A0
    # over T/f read back as u/s, bitwise, stamped with the step of T
    rng = np.random.default_rng(seed)
    model = limit_equation(preset(*family)[0])
    grid = Grid(2**log_n, rng.uniform(1.0, 20.0))
    spec = np.zeros((model.dim, grid.n_points // 2 + 1), complex)
    spec[:, 1:4] = rng.normal(size=(model.dim, 3)) + 1j * rng.normal(size=(model.dim, 3))
    A0 = np.fft.irfft(spec, grid.n_points, axis=-1)
    A0 *= 10.0**amplitude / np.max(np.abs(A0))
    dt = (-1.0 if backward else 1.0) * rng.uniform(0.5, 1.5) * T / steps
    _check_change_of_variables(model, A0, grid, T, dt, n_snapshots)


@pytest.mark.parametrize("family,amplitude,reason,taken", [
    # the limit run of tests/test_corpus.py::ABORTED_LIMIT_RUN (time factor
    # 8c = 1.67, amplitude s = -19.4)
    (("LL_EASY_CONE", {"alpha": 0.5, "theta0": 0.3}), 1.0, "gradient blow-up", 7),
    (("GP_SCALAR", None), 1e30, "non-finite state", 1),
], ids=["blow-up", "non-finite"])
def test_evolve_kdv_abort_is_in_the_units_of_a(family, amplitude, reason, taken):
    model = limit_equation(preset(*family)[0])
    grid = Grid(32, 1.0)
    A0 = amplitude * np.cos(2.0 * np.pi * grid.x)[None, :]
    with np.errstate(all="ignore"):
        traj = _check_change_of_variables(model, A0, grid, 0.05, 0.0025, 3)
    assert traj.aborted and traj.abort_reason == reason
    assert traj.meta["steps_taken"] == taken and traj.abort_time == taken * 0.0025


# -- conserved quantities ------------------------------------------------------


def test_conserved_zero_field(grid):
    model = canonical_scalar(1.0)
    h, m, p = conserved_quantities(model, np.zeros((1, grid.n_points)), grid)
    assert h == 0.0 and m == 0.0 and np.all(p == 0.0)


def test_conserved_sine_linear(grid):
    model = canonical_scalar(0.0)
    h, m, p = conserved_quantities(model, np.sin(grid.x)[None, :], grid)
    assert abs(h - np.pi / 2) < 1e-12
    assert abs(m - np.pi) < 1e-12
    assert abs(p[0]) < 1e-12


def test_conserved_sine_cubic_term_vanishes(grid):
    # int sin^3 = 0, so H is the same with Q(u,u)=u^2
    model = canonical_scalar(1.0)
    h, _, _ = conserved_quantities(model, np.sin(grid.x)[None, :], grid)
    assert abs(h - np.pi / 2) < 1e-12


# -- blow-up monitoring ----------------------------------------------------------


def test_no_breakdown_linear(grid):
    model = canonical_scalar(0.0)
    traj = evolve_kdv(model, np.sin(grid.x)[None, :], grid, 1.0, 1e-2)
    assert not traj.aborted and traj.abort_time is None


def test_aborted_run_reports_the_steps_taken():
    # the gradient guard stops the run near t = 0.5: the planned count stays
    # in meta["steps"], the steps actually run go to meta["steps_taken"], and
    # the abort step's gradient is the first above BLOWUP_MULTIPLE times the
    # initial one
    grid = Grid(128, 2 * np.pi)
    model = canonical_scalar(1.0, dispersion=0.0)
    traj = evolve_kdv(model, np.sin(grid.x)[None, :], grid, 1.0, 2e-3, record_gradient=True)
    assert traj.aborted and traj.abort_reason == "gradient blow-up"
    assert traj.meta["steps"] == 500
    taken = traj.meta["steps_taken"]
    assert taken < 500
    assert taken == round(traj.abort_time / 2e-3)
    times, grads = traj.meta["grad_history"]
    assert times[-1] == traj.abort_time
    crossed = np.flatnonzero(grads > BLOWUP_MULTIPLE * grads[0])
    assert crossed.tolist() == [taken]


@pytest.mark.parametrize("family,amplitude,reason,taken", [
    (None, 1.0, "gradient blow-up", 302),
    (("LL_EASY_CONE", {"alpha": 0.5, "theta0": 0.3}), 1.0, "gradient blow-up", 7),
    (("GP_SCALAR", None), 1e30, "non-finite state", 1),
], ids=["burgers", "aborted-limit-run", "non-finite"])
def test_screened_and_recorded_runs_agree(family, amplitude, reason, taken):
    # the bound only spares the guard's exact max: a run that records max|dx u|
    # on every step stops on the same step for the same reason, with the same
    # snapshots, as one whose guard is screened.  The runs: the sin x blow-up
    # of test_aborted_run_reports_the_steps_taken, and the two limit runs of
    # test_evolve_kdv_abort_is_in_the_units_of_a
    if family is None:
        model, grid, T, dt = canonical_scalar(1.0, 0.0), Grid(128, 2 * np.pi), 1.0, 2e-3
        A0 = np.sin(grid.x)[None, :]
    else:
        model, grid, T, dt = limit_equation(preset(*family)[0]), Grid(32, 1.0), 0.05, 0.0025
        A0 = amplitude * np.cos(2.0 * np.pi * grid.x)[None, :]
    with np.errstate(all="ignore"):
        screened, recorded = (evolve_kdv(model, A0, grid, T, dt, 3, record_gradient=record)
                              for record in (False, True))
    assert screened.abort_reason == recorded.abort_reason == reason
    assert screened.meta["steps_taken"] == recorded.meta["steps_taken"] == taken
    assert screened.abort_time == recorded.abort_time and screened.times == recorded.times
    assert screened.meta["snapshots"].tobytes() == recorded.meta["snapshots"].tobytes()
    assert "grad_history" not in screened.meta and "grad_history" in recorded.meta


def test_burgers_breakdown_near_oracle_time():
    # dispersionless du/dt + dx(u^2) = 0 with u0 = sin x breaks down at
    # t* = 1/max(-d/dx f'(u0)) = 1/max(-2 cos x) = 0.5
    grid = Grid(512, 2 * np.pi)
    model = canonical_scalar(1.0, dispersion=0.0)
    u0 = np.sin(grid.x)[None, :]
    traj = evolve_kdv(model, u0, grid, 1.0, 2e-4)
    assert traj.aborted and traj.abort_reason == "gradient blow-up"
    t_star = 0.5
    assert abs(traj.abort_time - t_star) <= 0.2 * t_star
