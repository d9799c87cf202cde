"""Tests for the microscopic integrators: ground states, dispersion oracles,
conservation, chart-consistent initial data, and the frame-scaling check."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdvlab import micro
from kdvlab.grid import SNAPSHOT_BLOCK, Grid, fourier_shift, integrate, snapshot_steps
from kdvlab.micro import (
    MicroState,
    dt_max,
    evolve_micro,
    mass,
    well_prepared_init,
)
from kdvlab.models import chart_assemble, chart_extract, normal_coupling, preset
from oracles import (_phase_factors, _potential_density, derivative, full_spectrum_shift,
                     linearize_rhs, micro_invariants, micro_rhs, micro_steps,
                     moving_frame_strang_steps, record_micro, stepper_states)

TOL = {
    "ground": 1e-14,
    "fd_oracle": 1e-6,
    "dispersion": 1e-2,
    "mass_drift": 1e-10,
    "gp_energy_drift": 1e-6,
    "gp_energy_drift_at_cap": 5e-5,
    "momentum_drift": 1e-12,
    "norm_dev": 1e-12,
    "af_energy_drift": 1e-7,
    "frame_consistency": 1e-4,
    "init_roundtrip": 1e-10,
}


def _bump(grid, amp=0.3, width=2.0):
    rho = amp / np.cosh((grid.x - 0.5 * grid.length) / width) ** 2
    return rho - rho.mean()


CONDENSATES = [("GP_SCALAR", None), ("GP_COUPLED", {"lam": 1.5, "gamma": 0.2})]


def _condensate_init(kind, params, grid, eps):
    """Well-prepared condensate state; the two coupled components differ."""
    geom, spec = preset(kind, params)
    comps = [_bump(grid), -0.5 * _bump(grid, amp=0.2, width=1.0)][: geom.dim]
    return spec, well_prepared_init(spec, np.stack(comps), grid, eps)


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "kind,params",
    [
        ("GP_SCALAR", None),
        ("GP_COUPLED", {"lam": 1.3, "gamma": 0.25}),
        ("LL_EASY_PLANE", {"k": 2.0}),
        ("LL_EASY_CONE", {"alpha": 0.8, "theta0": 1.1, "beta": 0.2}),
        ("AF_CHAIN", None),
    ],
)
def test_ground_states_are_static(kind, params):
    grid = Grid(64, 2 * np.pi)
    geom, spec = preset(kind, params)
    state = well_prepared_init(spec, np.zeros((geom.dim, 64)), grid, 0.2)
    assert np.max(np.abs(micro_rhs(spec, state.values, grid, 0.2))) <= TOL["ground"]


def _reference_spin_rhs(spec, vals, grid, eps, c):
    """The spin right-hand side in the frame moving at c/eps² (c = 0: the lab
    frame), written with np.cross, ``Grid.diff`` for each first derivative
    and ``oracles.derivative`` for each second one."""
    if spec.kind == "AF_CHAIN":
        u, v = vals[:3], vals[3:]
        du, dv = grid.diff(u), grid.diff(v)
        wu = -0.5 * eps**2 * derivative(u, grid, 2) - eps * dv + 2.0 * v
        wv = -0.5 * eps**2 * derivative(v, grid, 2) + eps * du + 2.0 * u
        ru = (c * eps * du + np.cross(u, wu, axis=0)) / eps**3
        rv = (c * eps * dv + np.cross(v, wv, axis=0)) / eps**3
        return np.concatenate([ru, rv], axis=0)
    grad = np.zeros_like(vals)
    if spec.kind == "LL_EASY_PLANE":
        grad[2] = 2.0 * spec.params["k"] * vals[2]
    else:
        dev = vals[2] - np.cos(spec.params["theta0"])
        grad[2] = 2.0 * spec.params["alpha"] * dev - 3.0 * spec.params["beta"] * dev**2
    torque = 0.5 * eps**2 * derivative(vals, grid, 2) - grad
    return (c * eps * grid.diff(vals) + np.cross(vals, torque, axis=0)) / eps**3


SPIN_KINDS = [
    ("LL_EASY_PLANE", {"k": 2.0}),
    ("LL_EASY_CONE", {"alpha": 0.8, "theta0": 1.1, "beta": 0.2}),
    ("AF_CHAIN", None),
]


def _real_rows(vals):
    """Rows of a state as real coordinates: (Re, Im) stacked for a condensate."""
    return np.concatenate([vals.real, vals.imag]) if np.iscomplexobj(vals) else vals


@pytest.mark.parametrize("kind,params", CONDENSATES + SPIN_KINDS)
def test_normal_coupling_matches_chart_frames(kind, params):
    # the coupling C with i0 tau_a = sum_b C[b,a] nu_b at the chart background
    # is s I, s = normal_coupling, with tau_a = dU/d(eps phi_a) and
    # nu_b = dU/d(eps^2 n_b) read off chart_assemble, and i0 the complex
    # structure of the micro equation, read off its dispersive term
    # i0 (1/(2 eps)) dx^2 from the cos(kappa x) part of the linearized
    # right-hand side at two wavenumbers
    eps, h = 0.2, 1e-4
    grid = Grid(32, 2 * np.pi)
    _, spec = preset(kind, params)
    d = spec.geometry.dim
    base = chart_assemble(spec, np.zeros((d, grid.n_points)), np.zeros((d, grid.n_points)), eps)

    def frame(a, coord):
        """dU/d(eps phi_a) (coord 0) or dU/d(eps^2 n_a) (coord 1), constant in x."""
        step = np.zeros((2, d, grid.n_points))
        step[coord, a] = h / eps ** (coord + 1)
        return (chart_assemble(spec, *step, eps) - chart_assemble(spec, *-step, eps))[:, 0] / (2 * h)

    nu = np.stack([_real_rows(frame(b, 1)) for b in range(d)], axis=-1)
    coupling = np.empty((d, d))
    for a in range(d):
        tau = frame(a, 0)[:, None]
        cos_parts = []
        for j in (1, 2):
            wave = np.cos(j * grid.x)
            plus = micro_rhs(spec, base + h * tau * wave, grid, eps)
            minus = micro_rhs(spec, base - h * tau * wave, grid, eps)
            cos_parts.append(_real_rows((plus - minus) / (2 * h)) @ wave * (2.0 / grid.n_points))
        i0_tau = 2.0 * eps * (cos_parts[0] - cos_parts[1]) / (2**2 - 1**2)
        coupling[:, a] = np.linalg.lstsq(nu, i0_tau, rcond=None)[0]
        assert np.max(np.abs(nu @ coupling[:, a] - i0_tau)) <= 1e-6  # i0 tau is normal
    assert np.max(np.abs(coupling - normal_coupling(spec) * np.eye(d))) <= 1e-6


def _slow_branch(spec, eps, grid, modes):
    """Per wavenumber index j of ``modes``: kappa, the eigenvalues and
    eigenvectors of the linearized right-hand side (oracles.linearize_rhs) in
    the frame moving at c/eps² (the lab-frame S(kappa) plus the transport
    i kappa c/eps²), the limit's Airy symbol -i kappa³/(8c) of
    2c dA/dt = (1/4) dxxx A, and the indices of the d eigenvalues closest to
    it (the slow branch)."""
    c = spec.geometry.c
    S = linearize_rhs(spec, grid, eps)
    for j in modes:
        kappa = grid.wavenumbers[j]
        lam, vec = np.linalg.eig(S[j])
        lam = lam + 1j * kappa * c / eps**2
        limit = -1j * kappa**3 / (8.0 * c)
        yield kappa, lam, vec, limit, np.argsort(np.abs(lam - limit))[: spec.geometry.dim]


@pytest.mark.parametrize("kind,params", CONDENSATES + SPIN_KINDS)
def test_slow_eigenvalues_are_the_limit_airy_symbol(kind, params):
    # the d slow eigenvalues at the chart background sit at the limit's
    # symbol, off by the next term of the dispersion relation: a relative
    # gap (eps kappa/c)²/16, so second order in eps (measured: the gap over
    # (eps kappa/c)² is 0.0620-0.0625 at eps 0.2, 0.1, 0.05 and kappa 0.5, 1)
    grid = Grid(32, 8 * np.pi)  # kappa_j = j/4
    geom, spec = preset(kind, params)
    gaps = {}
    for eps in (0.2, 0.1, 0.05):
        for kappa, lam, _, limit, slow in _slow_branch(spec, eps, grid, (2, 4)):
            gap = np.max(np.abs(lam[slow] - limit)) / abs(limit)
            assert abs(gap / (eps * kappa / geom.c) ** 2 - 1.0 / 16.0) <= 1e-3, (eps, kappa)
            gaps[eps, kappa] = gap
    for kappa in (0.5, 1.0):
        for big, small in ((0.2, 0.1), (0.1, 0.05)):
            assert abs(np.log2(gaps[big, kappa] / gaps[small, kappa]) - 2.0) <= 0.02


def _chart_frames(spec, eps, h=1e-3):
    """The chart's linearization at its background as a real (m, 2d) matrix:
    columns dU/dphi_a, then dU/dn_a (chart_assemble is pointwise, so constant
    fields give it; fourth-order central differences)."""
    d, frames = spec.geometry.dim, []
    for coord in range(2):
        for a in range(d):
            step = np.zeros((2, d, 4))
            step[coord, a] = h

            def diff(s):
                return _real_rows(chart_assemble(spec, *(s * step), eps)
                                  - chart_assemble(spec, *(-s * step), eps))[:, 0]

            frames.append((8.0 * diff(1.0) - diff(2.0)) / (12.0 * h))
    return np.stack(frames, axis=1)


@pytest.mark.parametrize("kind,params", CONDENSATES + SPIN_KINDS)
def test_slow_eigenvectors_carry_no_wave_observable(kind, params):
    # in chart coordinates (phi, n), a slow eigenvector has the hydro wave
    # observable W = (c + i0B0) dx(phi) + 2 lam s n at O(eps²) of the
    # amplitude A = -2 lam s n, with s = normal_coupling: the slow branch
    # is the W = 0 manifold the limit lives on (measured: |W|/|A| over
    # (eps kappa/c)² is 0.088-0.125)
    grid = Grid(32, 8 * np.pi)
    geom, spec = preset(kind, params)
    s, d = normal_coupling(spec), spec.geometry.dim
    for eps in (0.2, 0.1, 0.05):
        frames = _chart_frames(spec, eps)
        for kappa, _, vec, _, slow in _slow_branch(spec, eps, grid, (2, 4)):
            for v in vec[:, slow].T:
                coords, residual = np.linalg.lstsq(frames.astype(complex), v, rcond=None)[:2]
                assert residual.size == 0 or residual[0] <= 1e-20  # v is tangent to the chart
                phi, n = coords[:d], coords[d:]
                amplitude = -2.0 * geom.lam * s * n
                wave = (geom.c * np.eye(d) + geom.i0b0) @ (1j * kappa * phi) - amplitude
                ratio = np.linalg.norm(wave) / np.linalg.norm(amplitude)
                assert ratio <= 0.13 * (eps * kappa / geom.c) ** 2, (eps, kappa)


def _orders(values, kappas):
    """log2 of the ratio of ``values[eps, kappa]`` between eps 0.2 and 0.1,
    and 0.1 and 0.05: the order in eps, per kappa."""
    return [np.log2(values[big, kappa] / values[small, kappa])
            for kappa in kappas for big, small in ((0.2, 0.1), (0.1, 0.05))]


@pytest.mark.parametrize("kind,params", CONDENSATES + SPIN_KINDS)
def test_fast_eigenvalues_are_the_sound_branch(kind, params):
    # in the frame moving at c/eps², no mode of the linearized right-hand
    # side grows, and its d fast eigenvalues are i omega(kappa), the sound
    # frequency (c kappa + kappa sqrt(c² + eps² kappa²/4))/eps² of dt_max's
    # docstring: near 2c kappa/eps², with a relative gap (eps kappa/c)²/16.
    # A spin field's d remaining eigenvalues (its normal directions) sit at
    # the transport c kappa/eps².  Measured: |lam - i omega|/omega <= 8.4e-13,
    # |Re lam| <= 1.7e-14 c kappa/eps², the gap over (eps kappa/c)²
    # 0.06226-0.06250 with order 1.9958-1.9999 in eps, the normal branch
    # within 1e-17 c kappa/eps²
    grid = Grid(32, 8 * np.pi)
    geom, spec = preset(kind, params)
    c, d = geom.c, spec.geometry.dim
    gaps = {}
    for eps in (0.2, 0.1, 0.05):
        for kappa, lam, _, _, slow in _slow_branch(spec, eps, grid, (2, 4)):
            transport = c * kappa / eps**2
            sound = (c * kappa + kappa * np.sqrt(c**2 + eps**2 * kappa**2 / 4.0)) / eps**2
            assert np.max(np.abs(lam.real)) <= 1e-13 * transport, (eps, kappa)
            fast = np.argsort(np.abs(lam - 2j * transport))[:d]
            assert np.max(np.abs(lam[fast] - 1j * sound)) <= 1e-11 * sound, (eps, kappa)
            gaps[eps, kappa] = np.max(np.abs(lam[fast] - 2j * transport)) / (2.0 * transport)
            assert abs(gaps[eps, kappa] / (eps * kappa / c) ** 2 - 1.0 / 16.0) <= 1e-3
            normal = np.delete(lam, np.concatenate([slow, fast]))
            assert len(normal) == (0 if spec.is_complex else d)
            assert np.all(np.abs(normal - 1j * transport) <= 1e-12 * transport), (eps, kappa)
    assert all(abs(order - 2.0) <= 0.01 for order in _orders(gaps, (0.5, 1.0)))


@pytest.mark.parametrize("kind,params", CONDENSATES + SPIN_KINDS)
def test_well_prepared_data_lie_on_the_slow_eigenspace(kind, params):
    # well_prepared_init linearized in the amplitude of A0 (a central
    # difference, which cancels the even orders of the chart) puts each
    # Fourier mode of the state on the slow eigenspace of the linearized
    # right-hand side, but for a share (eps kappa/c)²/16 of it along the
    # other eigenvectors: second order in eps.  Measured over kappa = 1/4 ..
    # 1: the share over (eps kappa/c)² is 0.06219-0.06253, and its order in
    # eps 1.9946-2.0000
    grid = Grid(32, 8 * np.pi)
    geom, spec = preset(kind, params)
    c, d, modes = geom.c, spec.geometry.dim, (1, 2, 3, 4)
    A0 = 1e-4 * np.stack([sum(np.cos(grid.wavenumbers[j] * grid.x + 0.7 * j + 1.3 * a)
                              for j in modes) for a in range(d)])
    shares = {}
    for eps in (0.2, 0.1, 0.05):
        tangent = (well_prepared_init(spec, A0, grid, eps).values
                   - well_prepared_init(spec, -A0, grid, eps).values) / 2.0
        coeffs = np.fft.rfft(_real_rows(tangent), axis=-1)
        for j, (kappa, _, vec, _, slow) in zip(modes, _slow_branch(spec, eps, grid, modes)):
            parts = np.linalg.solve(vec, coeffs[:, j])
            rest = np.delete(np.arange(len(parts)), slow)
            shares[eps, kappa] = (np.linalg.norm(vec[:, rest] @ parts[rest])
                                  / np.linalg.norm(coeffs[:, j]))
            assert abs(shares[eps, kappa] / (eps * kappa / c) ** 2 - 1.0 / 16.0) <= 1e-3, (eps, kappa)
    assert all(abs(order - 2.0) <= 0.01
               for order in _orders(shares, grid.wavenumbers[list(modes)]))


@pytest.mark.parametrize("kind,params", SPIN_KINDS)
def test_fused_spin_rhs_matches_reference(kind, params):
    eps = 0.2
    grid = Grid(128, 8 * np.pi)
    geom, spec = preset(kind, params)
    A0 = np.stack([_bump(grid, width=1.0 + 0.5 * j) for j in range(geom.dim)])
    vals = well_prepared_init(spec, A0, grid, eps).values
    got = micro_rhs(spec, vals, grid, eps)
    want = _reference_spin_rhs(spec, vals, grid, eps, 0.0)
    assert got.shape == want.shape == vals.shape
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))


@pytest.mark.parametrize("kind,params", SPIN_KINDS)
def test_workspace_spin_steps_match_allocating_rk4(kind, params):
    # the stepper reuses its stage buffers and pre-scaled symbols; a plain
    # RK4 on the allocating micro_rhs, renormalised per sphere, must give the
    # same states, and no buffer reuse may reach a yielded or stored state
    eps, steps = 0.2, 200
    grid = Grid(128, 8 * np.pi)
    geom, spec = preset(kind, params)
    A0 = np.stack([_bump(grid, width=1.0 + 0.5 * j) for j in range(geom.dim)])
    s0 = well_prepared_init(spec, A0, grid, eps)
    dt = dt_max(spec, eps, grid)

    def rhs(v):
        return micro_rhs(spec, v, grid, eps)

    ref = [s0.values]
    for _ in range(steps):
        y = ref[-1]
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        for start in range(0, y.shape[0], 3):
            y[start:start + 3] /= np.linalg.norm(y[start:start + 3], axis=0)
        ref.append(y)
    ref = np.stack(ref)
    scale = np.max(np.abs(ref))

    states = stepper_states(spec, grid, eps, dt, s0.values.copy())
    held = next(states)
    kept = held.copy()
    for step in range(2, steps + 1):
        vals = next(states)
        assert np.max(np.abs(vals - ref[step])) <= 1e-12 * scale
    assert np.array_equal(held, kept)
    assert np.max(np.abs(held - ref[1])) <= 1e-12 * scale

    traj = record_micro(spec, s0, T=steps * dt, dt=dt, n_snapshots=steps + 1)
    assert not traj.aborted and traj.meta["steps"] == steps
    assert np.max(np.abs(traj.values - ref)) <= 1e-12 * scale


@pytest.mark.parametrize("kind,params", SPIN_KINDS)
def test_lab_frame_run_translated_matches_moving_frame_rk4(kind, params):
    # the spins step d/dt Γ = Γ × T(Γ) in the lab frame; Γ × T commutes with
    # translations, so the lab-frame state at t, translated by -(c/eps²) t,
    # is the state of the frame moving at c/eps², where the right-hand side
    # gains the transport (c/eps²) ∂x Γ.  RK4 with that transport, at a
    # quarter of dt_max over 200 steps, agrees to its own time error:
    # measured 1.3e-10 (easy-plane), 1.4e-10 (easy-cone), 2.6e-11 (pair),
    # while the states move by 4e-4 to 1e-3 and the translation by 1.6-2.0
    eps, steps = 0.2, 200
    grid = Grid(128, 8 * np.pi)
    spec, s0 = _init(kind, params, grid, eps)
    c = spec.geometry.c
    dt = 0.25 * dt_max(spec, eps, grid)

    def rhs(v):
        return _reference_spin_rhs(spec, v, grid, eps, c)

    lab = stepper_states(spec, grid, eps, dt, s0.values.copy())
    y = s0.values
    for step in range(1, steps + 1):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * dt * k1)
        k3 = rhs(y + 0.5 * dt * k2)
        k4 = rhs(y + dt * k3)
        y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        for start in range(0, y.shape[0], 3):
            y[start:start + 3] /= np.linalg.norm(y[start:start + 3], axis=0)
        vals = next(lab)
        moved = fourier_shift(vals, grid, -math.fmod(c / eps**2 * step * dt, grid.length))
        assert np.max(np.abs(moved - y)) <= 1e-9, step
    assert np.max(np.abs(y - s0.values)) >= 1e-4  # the run moves
    assert np.max(np.abs(vals - y)) >= 1e-3  # and the frames differ


@pytest.mark.parametrize("kind,params", CONDENSATES)
def test_lab_frame_condensate_run_translated_matches_moving_frame_strang_step(kind, params):
    # the condensates step in the lab frame; the Strang step of the frame
    # moving at c/eps² differs only by the transport exp(i c k dt/eps²) in its
    # linear factor, a translation, which commutes with the pointwise rotation
    # up to the aliasing of the sub-grid shift.  At a quarter of dt_max over
    # 200 steps the lab-frame states translated by -(c/eps²) t agree with
    # it: measured 2.1e-12 (scalar) and 1.6e-12 (coupled), while the states
    # move by 1e-3 to 2e-3 and the translation by 2.2
    eps, steps = 0.2, 200
    grid = Grid(128, 8 * np.pi)
    spec, s0 = _init(kind, params, grid, eps)
    c = spec.geometry.c
    dt = 0.25 * dt_max(spec, eps, grid)
    lab = stepper_states(spec, grid, eps, dt, s0.values.copy())
    moving = moving_frame_strang_steps(spec, s0.values, grid, eps, dt)
    for step in range(1, steps + 1):
        vals, y = next(lab), next(moving)
        moved = full_spectrum_shift(vals, grid, -math.fmod(c / eps**2 * step * dt, grid.length))
        assert np.max(np.abs(moved - y)) <= 1e-11, step
    assert np.max(np.abs(y - s0.values)) >= 1e-3  # the run moves
    assert np.max(np.abs(vals - y)) >= 1e-2  # and the frames differ


def _init(kind, params, grid, eps):
    """Well-prepared state of any family, from one bump per limit component."""
    geom, spec = preset(kind, params)
    A0 = np.stack([_bump(grid, width=1.0 + 0.5 * j) for j in range(geom.dim)])
    return spec, well_prepared_init(spec, A0, grid, eps)


@pytest.mark.parametrize("eps", [0.2, 0.1])
@pytest.mark.parametrize("kind,params", CONDENSATES + SPIN_KINDS)
def test_steps_match_the_allocating_oracle_bitwise(kind, params, eps):
    # the workspace steps keep the operations of the allocating steps, so
    # every state has the same bits
    grid = Grid(128, 8 * np.pi)
    spec, s0 = _init(kind, params, grid, eps)
    dt = dt_max(spec, eps, grid)
    got = stepper_states(spec, grid, eps, dt, s0.values.copy())
    want = micro_steps(spec, s0.values, grid, eps, dt)
    for _ in range(50):
        assert np.array_equal(next(got), next(want))


@settings(max_examples=50, deadline=None)
@given(
    blocks=st.sampled_from([1, 2]),
    n=st.integers(min_value=8, max_value=24),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_rolled_cross_matches_numpy_cross(blocks, n, seed):
    # the spin rhs forms u × w from the shifted views of its workspace's
    # [x, y, z, x, y] buffers: g_lo t_hi - g_hi t_lo
    _, spec = preset("AF_CHAIN" if blocks == 2 else "LL_EASY_PLANE")
    work = micro._SpinWork(spec, Grid(n, 2 * np.pi), [0.2])  # a batch of one run
    g5, _, t5, g_lo, g_hi, t_lo, t_hi = work.stage[-7:]
    rng = np.random.default_rng(seed)
    u, w = rng.normal(size=(2, blocks, 3, n)) * 10.0 ** rng.integers(-3, 4, size=(2, 1, 1, 1))
    u.reshape(work.shape).take(micro._ROLL, axis=-3, out=g5)
    w.reshape(work.shape).take(micro._ROLL, axis=-3, out=t5)
    np.testing.assert_array_equal((g_lo * t_hi - g_hi * t_lo).reshape(u.shape),
                                  np.cross(u, w, axis=-2))


def test_gp_rhs_matches_lab_frame_finite_difference_oracle():
    # same physics written in the unscaled frame, differentiated with
    # fourth-order stencils, then chain-ruled into the long-wave variables
    eps, n = 0.1, 512
    grid = Grid(n, 2 * np.pi)
    _, spec = preset("GP_SCALAR")
    u = np.exp(1j * eps * 0.1 * np.sin(grid.x))[None, :]
    r = micro_rhs(spec, u, grid, eps)

    dy = grid.spacing / eps
    U = u[0]

    def d2(f):
        return (-np.roll(f, -2) + 16 * np.roll(f, -1) - 30 * f + 16 * np.roll(f, 1) - np.roll(f, 2)) / (
            12 * dy**2
        )

    oracle = 1j * (0.5 * d2(U) + U * (1 - np.abs(U) ** 2)) / eps**3
    assert np.linalg.norm(r[0] - oracle) / np.linalg.norm(oracle) <= TOL["fd_oracle"]


def test_coupled_rhs_reduces_to_scalar_componentwise():
    grid = Grid(128, 2 * np.pi)
    eps = 0.2
    _, scalar = preset("GP_SCALAR")
    _, coupled = preset("GP_COUPLED", {"lam": 1.0, "gamma": 0.0})
    a = np.exp(1j * eps * 0.2 * np.sin(grid.x)) * (1 + eps**2 * 0.1 * np.cos(grid.x))
    b = np.exp(1j * eps * 0.1 * np.cos(2 * grid.x))
    r2 = micro_rhs(coupled, np.stack([a, b]), grid, eps)
    ra = micro_rhs(scalar, a[None, :], grid, eps)
    rb = micro_rhs(scalar, b[None, :], grid, eps)
    assert np.max(np.abs(r2 - np.concatenate([ra, rb]))) <= 1e-12


def test_state_validation():
    grid = Grid(32, 2 * np.pi)
    _, spec = preset("GP_SCALAR")
    with pytest.raises(ValueError):
        MicroState(spec, grid, 1.5, np.ones((1, 32), complex))  # eps out of range
    with pytest.raises(ValueError):
        MicroState(spec, grid, 0.2, np.ones((2, 32), complex))  # wrong shape
    with pytest.raises(ValueError, match="modulus"):
        MicroState(spec, grid, 0.2, 0.1 * np.ones((1, 32), complex))
    _, ll = preset("LL_EASY_PLANE")
    with pytest.raises(ValueError, match="unit-norm"):
        MicroState(ll, grid, 0.2, 1.1 * np.tile([[1.0], [0.0], [0.0]], 32))


@pytest.mark.parametrize("kind,rows", [("LL_EASY_PLANE", 3), ("GP_SCALAR", 1)])
def test_micro_rhs_rejects_nan_state(kind, rows):
    # a NaN sample must count as a pointwise violation, not pass every comparison
    _, spec = preset(kind)
    vals = np.full((rows, 8), np.nan)
    assert isinstance(micro._check_pointwise(spec, vals), str)


# ---------------------------------------------------------------------------
# linearized dispersion
# ---------------------------------------------------------------------------


def test_gp_linear_mode_frequencies():
    # empirical 2x2 propagator of the (k, -k) mode pair on the unit background
    eps, k_mode, delta, t_obs, dt = 0.5, 1.0, 1e-6, 0.1, 1e-3
    grid = Grid(64, 2 * np.pi)
    _, spec = preset("GP_SCALAR")

    def mode_vector(u):
        h = np.fft.fft(u[0] - 1.0)
        return np.array([h[1], np.conj(h[-1])])

    cols0, colst = [], []
    for w0 in (np.cos(grid.x), 1j * np.cos(grid.x)):
        s0 = MicroState(spec, grid, eps, (1.0 + delta * w0)[None, :])
        traj = record_micro(spec, s0, T=t_obs, dt=dt, n_snapshots=2)
        cols0.append(mode_vector(s0.values))
        colst.append(mode_vector(traj.values[-1]))
    prop = np.column_stack(colst) @ np.linalg.inv(np.column_stack(cols0))
    measured = sorted(np.angle(np.linalg.eigvals(prop)) / (-t_obs))

    # oracle A: sound-wave dispersion of the lab-frame linearization, closed form
    root = k_mode * np.sqrt(1.0 + eps**2 * k_mode**2 / 4.0)
    closed = sorted([-root / eps**2, root / eps**2])
    # oracle B: eigenvalues of the mode-pair coefficient matrix
    pair = (1.0 / eps**2) * np.array(
        [
            [-0.5j * eps * k_mode**2 - 1j / eps, -1j / eps],
            [1j / eps, 0.5j * eps * k_mode**2 + 1j / eps],
        ]
    )
    matrix = sorted(-np.imag(np.linalg.eigvals(pair)))
    scale = max(abs(w) for w in closed)
    assert all(abs(a - b) <= 1e-10 * scale for a, b in zip(closed, matrix))
    assert all(abs(m - o) <= TOL["dispersion"] * scale for m, o in zip(measured, closed))


# ---------------------------------------------------------------------------
# conservation
# ---------------------------------------------------------------------------


def test_gp_conservation_over_run():
    eps = 0.2
    grid = Grid(256, 8 * np.pi)
    geom, spec = preset("GP_SCALAR")
    s0 = well_prepared_init(spec, _bump(grid)[None, :], grid, eps)
    m0 = mass(spec, s0.values, grid)
    e0, p0 = micro_invariants(spec, s0.values, grid, eps)
    traj = record_micro(spec, s0, T=0.5, dt=0.5 / 693, n_snapshots=6)
    assert not traj.aborted
    for vals in traj.values:
        e, p = micro_invariants(spec, vals, grid, eps)
        assert abs(mass(spec, vals, grid) - m0) / m0 <= TOL["mass_drift"]
        assert abs(e - e0) / abs(e0) <= TOL["gp_energy_drift"]
        assert abs(p - p0) <= TOL["momentum_drift"]


def test_gp_ground_state_invariants_vanish():
    grid = Grid(64, 2 * np.pi)
    _, spec = preset("GP_SCALAR")
    e, p = micro_invariants(spec, np.ones((1, 64), complex), grid, 0.3)
    assert abs(e) <= 1e-14 and abs(p) <= 1e-14


def test_ll_energy_analytic_value():
    grid = Grid(256, 2 * np.pi)
    _, spec = preset("LL_EASY_PLANE")
    ang = 0.1 * np.sin(grid.x)
    gam = np.stack([np.cos(ang), np.sin(ang), np.zeros_like(ang)])
    e, _ = micro_invariants(spec, gam, grid, 0.2)
    assert abs(e - 0.005 * np.pi) <= 1e-13


@pytest.mark.parametrize(
    "kind,params",
    [("LL_EASY_PLANE", None), ("LL_EASY_CONE", {"alpha": 0.9, "theta0": 1.0, "beta": 0.15})],
)
def test_spin_chain_momentum_conserved(kind, params):
    eps = 0.2
    grid = Grid(256, 8 * np.pi)
    geom, spec = preset(kind, params)
    s0 = well_prepared_init(spec, 0.25 * _bump(grid)[None, :] / 0.3, grid, eps)
    _, p0 = micro_invariants(spec, s0.values, grid, eps)
    steps = {"LL_EASY_PLANE": 624, "LL_EASY_CONE": 576}[kind]  # a step just under dt_max
    traj = record_micro(spec, s0, T=0.3, dt=0.3 / steps, n_snapshots=4)
    assert not traj.aborted
    for vals in traj.values:
        _, p = micro_invariants(spec, vals, grid, eps)
        assert abs(p - p0) <= TOL["momentum_drift"]


def test_ll_conserved_energy_variant():
    # the eps-weighted gradient form is the exactly conserved functional
    eps = 0.2
    grid = Grid(256, 8 * np.pi)
    geom, spec = preset("LL_EASY_PLANE")
    s0 = well_prepared_init(spec, 0.25 * _bump(grid)[None, :] / 0.3, grid, eps)

    def conserved(vals):
        dg = grid.diff(vals)
        return integrate(0.25 * eps**2 * np.sum(dg**2, axis=0) + _potential_density(spec, vals),
                         grid)

    e0 = conserved(s0.values)
    traj = record_micro(spec, s0, T=0.3, dt=0.3 / 624, n_snapshots=4)
    for vals in traj.values:
        assert abs(conserved(vals) - e0) / abs(e0) <= 1e-10


def test_ll_unit_norm_over_ten_thousand_steps():
    grid = Grid(64, 2 * np.pi)
    _, spec = preset("LL_EASY_PLANE")
    pert = 0.1 * np.sin(grid.x)
    g0 = np.stack([np.cos(pert), np.sin(pert), 0.05 * np.cos(grid.x)])
    g0 /= np.linalg.norm(g0, axis=0)
    state = MicroState(spec, grid, 0.5, g0)
    dt = 0.999 * dt_max(spec, 0.5, grid)
    traj = record_micro(spec, state, T=10_000 * dt, dt=dt, n_snapshots=3)
    assert not traj.aborted
    assert traj.meta["steps"] == 10_000
    for vals in traj.values:
        assert np.max(np.abs(np.linalg.norm(vals, axis=0) - 1.0)) <= TOL["norm_dev"]


def test_af_conservation_and_stability():
    eps = 0.3
    grid = Grid(128, 4 * np.pi)
    geom, spec = preset("AF_CHAIN")
    A0 = np.stack([_bump(grid, amp=0.2), -0.5 * _bump(grid, amp=0.2)])
    s0 = well_prepared_init(spec, A0, grid, eps)
    e0, p0 = micro_invariants(spec, s0.values, grid, eps)
    size0 = np.linalg.norm(s0.values[1:3])
    traj = record_micro(spec, s0, T=0.5, dt=0.5 / 642, n_snapshots=6)
    assert not traj.aborted
    for vals in traj.values:
        e, p = micro_invariants(spec, vals, grid, eps)
        assert abs(e - e0) / abs(e0) <= TOL["af_energy_drift"]
        assert abs(p - p0) <= 1e-10
        for block in (slice(0, 3), slice(3, 6)):
            dev = np.max(np.abs(np.linalg.norm(vals[block], axis=0) - 1.0))
            assert dev <= TOL["norm_dev"]
    # linear stability: the transverse excitation must not grow
    size_end = np.linalg.norm(traj.values[-1][1:3])
    assert size_end <= 2.0 * size0 + 1e-12


# ---------------------------------------------------------------------------
# time stepping machinery
# ---------------------------------------------------------------------------


def test_evolve_rejects_oversized_step():
    grid = Grid(128, 2 * np.pi)
    _, spec = preset("LL_EASY_PLANE")
    state = MicroState(spec, grid, 0.2, np.tile([[1.0], [0.0], [0.0]], 128))
    with pytest.raises(ValueError, match="dt_max"):
        record_micro(spec, state, T=0.1, dt=10 * dt_max(spec, 0.2, grid))


def _gp_rest_state(n=64, eps=0.5):
    grid = Grid(n, 2 * np.pi)
    _, spec = preset("GP_SCALAR")
    return spec, MicroState(spec, grid, eps, np.ones((1, n), complex)), dt_max(spec, eps, grid)


def test_evolve_enforces_dt_max_on_the_step_taken():
    # a requested step at the cap over T = 1.45 cap rounds to one step of
    # 1.45 cap: the step actually taken is what must stay under the cap
    spec, state, cap = _gp_rest_state()
    with pytest.raises(ValueError, match="dt_max"):
        record_micro(spec, state, T=1.45 * cap, dt=cap)


@pytest.mark.parametrize("dt", [-1e-3, 0.0])
def test_evolve_rejects_non_positive_dt(dt):
    spec, state, _ = _gp_rest_state()
    with pytest.raises(ValueError, match="positive"):
        record_micro(spec, state, T=0.1, dt=dt)


def test_evolve_streams_blocks_through_one_buffer():
    # 70 snapshots reach the consumer as blocks of 32, 32 and 6, in order,
    # each a view of the same block buffer, with the times the run returns
    spec, state, _ = _gp_rest_state()
    seen = []

    def consume(times, block):
        seen.append((list(times), block, block.copy()))

    traj = evolve_micro(spec, state, T=0.069, dt=1e-3, n_snapshots=70, consume=consume)
    assert not traj.aborted and len(traj) == 70
    assert [len(v) for _, v, _ in seen] == [SNAPSHOT_BLOCK, SNAPSHOT_BLOCK, 6]
    assert all(np.shares_memory(v, seen[0][1]) for _, v, _ in seen)
    assert sum((t for t, _, _ in seen), []) == traj.times
    assert np.array_equal(np.concatenate([c for _, _, c in seen]),
                          record_micro(spec, state, T=0.069, dt=1e-3, n_snapshots=70).values)


def test_split_step_stays_inside_resonance_threshold():
    # a step just under dt_max (693 steps to T = 0.5) must sit below the
    # high-k phase-resonance instability
    eps = 0.2
    grid = Grid(256, 8 * np.pi)
    geom, spec = preset("GP_SCALAR")
    kmax = np.max(np.abs(grid.wavenumbers))
    assert dt_max(spec, eps, grid) * (geom.c * kmax + 0.5 * eps * kmax**2) / eps**2 <= np.pi
    s0 = well_prepared_init(spec, _bump(grid)[None, :], grid, eps)
    traj = record_micro(spec, s0, T=0.5, dt=0.5 / 693, n_snapshots=3)
    assert not traj.aborted
    mod = np.abs(traj.values[-1])
    assert 0.9 <= mod.min() and mod.max() <= 1.1


@pytest.mark.parametrize("kind,params", CONDENSATES)
@pytest.mark.parametrize("eps_kmax", [0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 6.4, 12.8])
def test_split_step_stable_at_dt_max_over_validated_range(kind, params, eps_kmax):
    # dt_max was measured over eps*kmax in micro.SPLIT_STEP_RANGE = [0.1, 12.8]
    # (configs outside it are rejected): 2000 steps at the cap complete, stay
    # in the modulus range and keep the energy.  The largest drift measured
    # here was 3.06e-5 (GP_COUPLED, eps*kmax = 6.4), at most 2.4e-8 at 0.1,
    # 0.2 and 0.4.  At 1.6x the cap the step aborts at 6.4 and 12.8 (three
    # of the four runs; the fourth drifts 5.6e3), where the sound phase
    # binds, and drifts at most 4.6e-5 at 0.1, 0.4 and 3.2.
    grid = Grid(128, 8 * np.pi)
    eps = eps_kmax / np.max(np.abs(grid.wavenumbers))
    spec, s0 = _condensate_init(kind, params, grid, eps)
    dt = dt_max(spec, eps, grid)
    traj = record_micro(spec, s0, T=2000 * dt, dt=dt, n_snapshots=11)
    assert not traj.aborted and traj.meta["steps_taken"] == 2000
    e0, _ = micro_invariants(spec, s0.values, grid, eps)
    lo, hi = micro._MODULUS_RANGE
    for vals in traj.values:
        mod = np.abs(vals)
        assert lo <= mod.min() and mod.max() <= hi
        e = micro_invariants(spec, vals, grid, eps)[0]
        assert abs(e - e0) <= TOL["gp_energy_drift_at_cap"] * abs(e0)


def test_abort_on_chart_breakdown_returns_partial_run():
    grid = Grid(128, 2 * np.pi)
    _, spec = preset("GP_SCALAR")
    u0 = 1.45 * np.exp(0.4j * np.sin(grid.x))
    state = MicroState(spec, grid, 0.5, u0[None, :])
    traj = record_micro(spec, state, T=0.5, dt=0.5 / 868, n_snapshots=21)
    assert traj.aborted
    assert "modulus" in traj.abort_reason
    assert 0 < len(traj.values) < 21
    assert traj.abort_time is not None and 0 < traj.abort_time < 0.5


def test_abort_inside_second_block_hands_over_the_partial_block():
    # this state first leaves the modulus range on step 150; snapshots every
    # third step put that check at snapshot 50, inside the second block, so
    # the consumer gets one full block and snapshots 32-49, then the run stops
    grid = Grid(128, 2 * np.pi)
    _, spec = preset("GP_SCALAR")
    u0 = 1.45 * np.exp(0.4j * np.sin(grid.x))
    state = MicroState(spec, grid, 0.5, u0[None, :])
    dt = 0.5 / 868
    assert snapshot_steps(868, 869)[1] == 1 and snapshot_steps(868, 290)[1] == 3
    every = record_micro(spec, state, T=0.5, dt=dt, n_snapshots=869)
    assert every.meta["steps_taken"] == 150
    blocks = []
    traj = evolve_micro(spec, state, T=0.5, dt=dt, n_snapshots=290,
                        consume=lambda times, block: blocks.append((times, block.copy())))
    assert traj.aborted and "modulus" in traj.abort_reason
    assert traj.meta["steps_taken"] == 150
    assert traj.abort_time == 150 * dt
    assert [len(v) for _, v in blocks] == [SNAPSHOT_BLOCK, 50 - SNAPSHOT_BLOCK]
    assert traj.times == [3 * k * dt for k in range(50)]
    assert sum((t for t, _ in blocks), []) == traj.times
    assert np.array_equal(np.concatenate([v for _, v in blocks]), every.values[0:150:3])


def _strang_two_factor(spec, vals, grid, eps, dt, steps):
    """Textbook Strang step R(dt/2) L(dt) R(dt/2): a fresh rotation factor for
    each half rotation."""
    lin = np.exp(-0.5j * dt * grid.wavenumbers**2 / eps)
    for _ in range(steps):
        vals = vals * np.exp(0.5j * dt * _phase_factors(spec, vals) / eps**3)
        vals = np.fft.ifft(lin * np.fft.fft(vals, axis=-1), axis=-1)
        vals = vals * np.exp(0.5j * dt * _phase_factors(spec, vals) / eps**3)
    return vals


@pytest.mark.parametrize("kind,params", CONDENSATES)
def test_split_step_matches_two_factor_strang_step(kind, params):
    # sharing the trailing half-rotation factor with the next step's leading
    # one changes nothing but round-off
    eps, steps = 0.2, 200
    grid = Grid(128, 4 * np.pi)
    spec, s0 = _condensate_init(kind, params, grid, eps)
    dt = dt_max(spec, eps, grid)
    traj = record_micro(spec, s0, T=steps * dt, dt=dt, n_snapshots=2)
    assert not traj.aborted and traj.meta["steps"] == steps
    ref = _strang_two_factor(spec, s0.values, grid, eps, traj.dt, steps)
    got = traj.values[-1]
    assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("kind,params", CONDENSATES + SPIN_KINDS)
def test_transforms_per_micro_step(fft_calls, kind, params):
    # a condensate split step makes one fft and one ifft of its m rows; a
    # spin step makes 4 right-hand sides of one rfft and one irfft each, of
    # the 3 rows of a sphere (3B rows, B = 2 for the antiferromagnet): the
    # lab-frame right-hand side transforms the torque alone
    eps, grid = 0.2, Grid(64, 8 * np.pi)
    geom, spec = preset(kind, params)
    A0 = np.stack([_bump(grid, width=1.0 + 0.5 * j) for j in range(geom.dim)])
    s0 = well_prepared_init(spec, A0, grid, eps)
    dt = 0.5 * dt_max(spec, eps, grid)

    def transforms(steps):
        before = fft_calls.copy()
        evolve_micro(spec, s0, steps * dt, dt, n_snapshots=2, consume=lambda times, block: None)
        return fft_calls - before

    rows = len(s0.values)
    if spec.is_complex:
        per_ten = {("fft", rows): 10, ("ifft", rows): 10}
    else:
        per_ten = {("rfft", rows): 40, ("irfft", rows): 40}
    assert transforms(20) - transforms(10) == per_ten


def test_split_step_computes_one_rotation_factor_per_step(monkeypatch):
    grid = Grid(64, 2 * np.pi)
    geom, spec = preset("GP_SCALAR")
    s0 = well_prepared_init(spec, _bump(grid, width=0.5)[None, :], grid, 0.5)
    calls = []
    phase_factors = micro._phase_factors

    def counted(spec, out, scale):  # the batch's angle function, counting its calls
        theta = phase_factors(spec, out, scale)

        def counted_theta(z):
            calls.append(None)
            return theta(z)

        return counted_theta

    monkeypatch.setattr(micro, "_phase_factors", counted)
    traj = record_micro(spec, s0, T=0.05, dt=0.05 / 40, n_snapshots=5)
    assert not traj.aborted and traj.meta["steps"] == 40
    assert len(calls) == 40 + 1  # the leading factor of step 1, then one a step


@pytest.mark.parametrize("half", [0, 1])
def test_split_step_aborts_on_the_exact_non_finite_step(monkeypatch, half):
    # call 1 makes the leading half-rotation factor of step 1; call s + 1 makes
    # step s's trailing factor, which step s + 1 reuses as its leading one.  A
    # NaN in either is reported on the step it enters, not at the next
    # snapshot (the last step of the run here).
    grid = Grid(64, 2 * np.pi)
    geom, spec = preset("GP_SCALAR")
    s0 = well_prepared_init(spec, _bump(grid, width=0.5)[None, :], grid, 0.5)
    steps = 40
    bad_call, bad_step = [(1, 1), (8, 7)][half]
    calls = []
    phase_factors = micro._phase_factors

    def poisoned(spec, out, scale):  # the batch's angle function, NaN on call bad_call
        theta = phase_factors(spec, out, scale)

        def poisoned_theta(z):
            calls.append(None)
            angles = theta(z)
            return angles * np.nan if len(calls) == bad_call else angles

        return poisoned_theta

    monkeypatch.setattr(micro, "_phase_factors", poisoned)
    traj = record_micro(spec, s0, T=0.05, dt=0.05 / steps, n_snapshots=2)
    assert traj.aborted
    assert traj.abort_reason == "non-finite state"
    assert traj.abort_time == pytest.approx(bad_step * 0.05 / steps, rel=1e-12)
    assert traj.times == [0.0]
    assert traj.meta["steps"] == steps and traj.meta["steps_taken"] == bad_step


def test_aborted_spin_run_counts_the_stages_it_ran(monkeypatch):
    # a NaN from the first stage of step 6 aborts the run there: 6 steps and
    # 24 right-hand-side evaluations were run, not the 40 steps planned
    grid = Grid(64, 2 * np.pi)
    _, spec = preset("LL_EASY_PLANE")
    pert = 0.1 * np.sin(grid.x)
    g0 = np.stack([np.cos(pert), np.sin(pert), np.zeros(64)])
    state = MicroState(spec, grid, 0.5, g0)
    dt = dt_max(spec, 0.5, grid)
    calls = []
    rhs_raw = micro._rhs_raw

    def poisoned(*args, **kwargs):
        calls.append(None)
        out = rhs_raw(*args, **kwargs)
        return out * np.nan if len(calls) == 21 else out

    monkeypatch.setattr(micro, "_rhs_raw", poisoned)
    traj = record_micro(spec, state, T=40 * dt, dt=dt, n_snapshots=2)
    assert traj.aborted and traj.abort_reason == "non-finite state"
    assert traj.meta["steps"] == 40
    assert traj.meta["steps_taken"] == 6
    assert traj.meta["rhs_evals"] == 24


def test_spin_step_aborts_on_a_zero_norm_point(monkeypatch):
    # a zero right-hand side keeps the state, and its zero-norm point
    # renormalizes to 0/0: the step that makes it must raise
    grid = Grid(64, 2 * np.pi)
    _, spec = preset("LL_EASY_PLANE")
    vals = np.tile([[1.0], [0.0], [0.0]], 64)
    vals[:, 5] = 0.0
    monkeypatch.setattr(micro, "_rhs_raw", lambda vals, out, work: np.zeros_like(vals))
    states = stepper_states(spec, grid, 0.5, 1e-3, vals)
    with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
        next(states)


@pytest.mark.parametrize("kind,params", CONDENSATES + SPIN_KINDS)
def test_micro_steps_allocate_only_the_yielded_state(kind, params):
    # after the first step has built the run's buffers, each of 200 steps at
    # N = 256 allocates the state it yields and small objects, so a run holds
    # at most two states: the previous one and the new one.  The rise of the
    # traced memory within a step is measured against what the step starts
    # with, since freed Python objects kept on free lists stay traced
    grid, eps = Grid(256, 8 * np.pi), 0.2
    spec, s0 = _init(kind, params, grid, eps)
    advance, _ = micro._make_stepper(spec, grid, [eps], [dt_max(spec, eps, grid)])(s0.values[None])
    vals = advance()
    rises = []
    tracemalloc.start()
    try:
        for _ in range(200):
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            vals = advance()
            rises.append(tracemalloc.get_traced_memory()[1] - held)
    finally:
        tracemalloc.stop()
    # measured on numpy 2.4: the state plus 1.0 kB (condensates) or 1.6 kB
    # (spins); a broadcast ufunc operand or a take that copies its output
    # adds a buffer of a state or more
    assert max(rises) <= vals.nbytes + 2048


@pytest.mark.parametrize("kind,params", CONDENSATES + SPIN_KINDS)
def test_group_steps_allocate_only_the_yielded_state(kind, params):
    # a lockstep step of three runs allocates the (3, m, N) state it yields
    # and small objects, as one run's step does: every run's factors have
    # the full shape, and the spin rows keep the runs next to the samples,
    # so no ufunc runs numpy's buffered loop
    grid = Grid(256, 8 * np.pi)
    runs = [_init(kind, params, grid, eps) for eps in (0.2, 0.1, 0.05)]
    spec = runs[0][0]
    advance, _ = micro._make_stepper(spec, grid, [s0.eps for _, s0 in runs],
                                     [dt_max(spec, s0.eps, grid) for _, s0 in runs])(
        np.stack([s0.values for _, s0 in runs]))
    vals = advance()
    rises = []
    tracemalloc.start()
    try:
        for _ in range(200):
            tracemalloc.reset_peak()
            held = tracemalloc.get_traced_memory()[0]
            vals = advance()
            rises.append(tracemalloc.get_traced_memory()[1] - held)
    finally:
        tracemalloc.stop()
    # measured on numpy 2.4: the state plus 0.4 kB (condensates) or 1.4 kB
    # (spins); a buffered loop adds a buffer of a state or more
    assert vals.shape == (3,) + runs[0][1].values.shape
    assert max(rises) <= vals.nbytes + 2048


def _recorded(spec, states, T, dts, n_snapshots):
    """The runs of ``states`` stepped as one group by ``micro.evolve_group``:
    each run's trajectory and the blocks it was handed, copied."""
    blocks = [[] for _ in states]
    trajs = micro.evolve_group(spec, states, T, dts, n_snapshots,
                               consumers=[lambda t, b, kept=kept: kept.append((t, b.copy()))
                                          for kept in blocks])
    return list(zip(trajs, blocks))


def _solo(spec, s0, T, dt, n_snapshots):
    blocks = []
    traj = evolve_micro(spec, s0, T, dt, n_snapshots,
                        consume=lambda t, b: blocks.append((t, b.copy())))
    return traj, blocks


def _same_run(got, want):
    (traj, blocks), (ref, ref_blocks) = got, want
    assert (traj.times, traj.meta, traj.aborted, traj.abort_reason, traj.abort_time) == (
        ref.times, ref.meta, ref.aborted, ref.abort_reason, ref.abort_time)
    assert [t for t, _ in blocks] == [t for t, _ in ref_blocks]
    assert all(np.array_equal(b, r) for (_, b), (_, r) in zip(blocks, ref_blocks))


@pytest.mark.parametrize("kind,params", CONDENSATES + SPIN_KINDS)
def test_group_runs_have_the_bits_of_solo_runs(kind, params):
    # three eps stepped in lockstep: each run hands its consumer the blocks
    # (about 40 snapshots, across a block seam for the longest run) and
    # returns the trajectory of the same run stepped alone, bit for bit,
    # though the runs leave the batch at different steps
    grid, T = Grid(64, 8 * np.pi), 0.02
    runs = [_init(kind, params, grid, eps) for eps in (0.4, 0.2, 0.1)]
    spec, states = runs[0][0], [s0 for _, s0 in runs]
    dts = [0.25 * dt_max(spec, s0.eps, grid) for s0 in states]
    group = _recorded(spec, states, T, dts, 40)
    assert len({traj.meta["steps"] for traj, _ in group}) == 3
    assert len(group[-1][1]) >= 2  # blocks cross a seam
    for got, s0, dt in zip(group, states, dts):
        assert not got[0].aborted
        _same_run(got, _solo(spec, s0, T, dt, 40))


def _poison_row(monkeypatch, name, bad_call, row):
    """Make the spin right-hand side ``micro._rhs_raw``, or the angle function
    that ``micro._phase_factors`` builds for each batch, write NaN into the
    batch row ``row`` on its ``bad_call``-th call (counted over every batch)."""
    calls = []

    def poison(fn):
        def poisoned(*args, **kwargs):
            calls.append(None)
            out = fn(*args, **kwargs)
            if len(calls) == bad_call:
                rows = out if name == "_phase_factors" else np.moveaxis(out, -2, 0)  # runs at -2
                rows[row] *= np.nan
            return out

        return poisoned

    real = getattr(micro, name)
    if name == "_phase_factors":
        monkeypatch.setattr(micro, name, lambda *args: poison(real(*args)))
    else:
        monkeypatch.setattr(micro, name, poison(real))


@pytest.mark.parametrize("kind,params,name,bad_call,bad_step", [
    ("GP_SCALAR", None, "_phase_factors", 8, 7),  # call s + 1 makes step s's factor
    ("GP_COUPLED", {"lam": 1.5, "gamma": 0.2}, "_phase_factors", 8, 7),
    ("LL_EASY_PLANE", {"k": 2.0}, "_rhs_raw", 22, 6),  # 4 calls a step
    ("AF_CHAIN", None, "_rhs_raw", 22, 6),
])
def test_a_non_finite_run_leaves_the_group_as_it_aborts_alone(monkeypatch, kind, params, name,
                                                              bad_call, bad_step):
    # the middle run of three turns non-finite on step bad_step: it aborts
    # there with the reason and step count of the same run poisoned alone,
    # and the other two finish with the bits of their solo runs
    grid, T = Grid(64, 8 * np.pi), 0.02
    runs = [_init(kind, params, grid, eps) for eps in (0.2, 0.1, 0.05)]
    spec, states = runs[0][0], [s0 for _, s0 in runs]
    dts = [0.25 * dt_max(spec, s0.eps, grid) for s0 in states]
    solo = [_solo(spec, s0, T, dt, 11) for s0, dt in zip(states, dts)]
    assert min(traj.meta["steps"] for traj, _ in solo) > bad_step  # all three are in the batch
    with monkeypatch.context() as patch:
        _poison_row(patch, name, bad_call, 0)
        alone = _solo(spec, states[1], T, dts[1], 11)
    assert alone[0].aborted and alone[0].abort_reason == "non-finite state"
    assert alone[0].meta["steps_taken"] == bad_step
    _poison_row(monkeypatch, name, bad_call, 1)
    group = _recorded(spec, states, T, dts, 11)
    _same_run(group[1], alone)
    _same_run(group[0], solo[0])
    _same_run(group[2], solo[2])


def test_a_run_failing_its_snapshot_check_leaves_the_group_as_it_aborts_alone():
    # this state leaves the modulus range on step 150 (see
    # test_abort_inside_second_block_hands_over_the_partial_block); with
    # snapshots every third step it aborts at its snapshot 50, and a
    # well-prepared run at another eps and step goes on to its end with the
    # bits of its solo run
    grid = Grid(128, 2 * np.pi)
    spec, benign = _condensate_init("GP_SCALAR", None, grid, 0.3)
    failing = MicroState(spec, grid, 0.5, 1.45 * np.exp(0.4j * np.sin(grid.x))[None, :])
    dts = [0.5 / 868, 0.5 / 2000]
    assert dts[1] <= dt_max(spec, 0.3, grid)
    group = _recorded(spec, [failing, benign], 0.5, dts, 290)
    alone = _solo(spec, failing, 0.5, dts[0], 290)
    assert alone[0].aborted and "modulus" in alone[0].abort_reason
    assert alone[0].meta["steps_taken"] == 150
    _same_run(group[0], alone)
    _same_run(group[1], _solo(spec, benign, 0.5, dts[1], 290))
    assert not group[1][0].aborted


def test_group_rejects_grids_of_different_sizes():
    spec, state, cap = _gp_rest_state()
    other = MicroState(spec, Grid(32, 2 * np.pi), 0.5, np.ones((1, 32), complex))
    with pytest.raises(ValueError, match="grid size"):
        micro.evolve_group(spec, [state, other], 40 * cap, [cap, cap], consumers=[print, print])


def test_snapshot_neighbors_give_centered_time_derivative():
    # one step of the run's stepper either side of a snapshot, the neighbours
    # the residual oracle differences
    eps = 0.2
    grid = Grid(256, 8 * np.pi)
    geom, spec = preset("GP_SCALAR")
    s0 = well_prepared_init(spec, _bump(grid)[None, :], grid, eps)
    traj = record_micro(spec, s0, T=0.2, dt=0.2 / 278, n_snapshots=5)
    mid = len(traj.values) // 2
    prev, nxt = (next(stepper_states(spec, grid, eps, h, traj.values[mid]))
                 for h in (-traj.dt, traj.dt))
    central = (nxt - prev) / (2.0 * traj.dt)
    r = micro_rhs(spec, traj.values[mid], grid, eps)
    assert np.linalg.norm(central - r) / np.linalg.norm(r) <= 1e-2


def test_trajectory_times_and_endpoints():
    grid = Grid(64, 2 * np.pi)
    _, spec = preset("GP_SCALAR")
    state = MicroState(spec, grid, 0.5, np.ones((1, 64), complex))
    traj = record_micro(spec, state, T=0.1, dt=1e-3, n_snapshots=6)
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.1, abs=1e-15)
    assert np.max(np.abs(traj.values[-1] - 1.0)) <= 1e-12


# ---------------------------------------------------------------------------
# well-prepared initial data
# ---------------------------------------------------------------------------


def test_well_prepared_rejects_nonzero_mean():
    grid = Grid(64, 2 * np.pi)
    geom, spec = preset("GP_SCALAR")
    with pytest.raises(ValueError, match="zero-mean"):
        well_prepared_init(spec, np.ones((1, 64)), grid, 0.2)


@pytest.mark.parametrize("A0,match", [
    (np.zeros(64), r"\(1, 64\)"),
    (np.zeros((2, 64)), r"\(1, 64\)"),
    (np.zeros((1, 32)), r"\(1, 64\)"),
    (np.zeros((1, 64), complex), "real"),
])
def test_well_prepared_rejects_data_of_wrong_shape_or_dtype(A0, match):
    # A0 is the real (d, N) frame data on the grid
    grid = Grid(64, 2 * np.pi)
    geom, spec = preset("GP_SCALAR")
    with pytest.raises(ValueError, match=match):
        well_prepared_init(spec, A0, grid, 0.2)


def test_well_prepared_rejects_phase_outside_chart():
    grid = Grid(256, 8 * np.pi)
    geom, spec = preset("GP_SCALAR")
    big = (3.0 * np.sin(grid.x / 4.0))[None, :]
    with pytest.raises(ValueError, match="chart"):
        well_prepared_init(spec, big, grid, 0.9)


@pytest.mark.parametrize(
    "kind,params",
    [
        ("GP_SCALAR", None),
        ("GP_COUPLED", {"lam": 1.3, "gamma": 0.2}),
        ("LL_EASY_PLANE", None),
        ("LL_EASY_CONE", {"alpha": 0.9, "theta0": 1.0, "beta": 0.15}),
        ("AF_CHAIN", None),
    ],
)
def test_well_prepared_chart_roundtrip(kind, params):
    eps = 0.2
    grid = Grid(256, 8 * np.pi)
    geom, spec = preset(kind, params)
    comps = [_bump(grid, amp=0.2)]
    if geom.dim == 2:
        comps.append(-0.5 * _bump(grid, amp=0.2))
    A0 = np.stack(comps)
    state = well_prepared_init(spec, A0, grid, eps)
    phi, n, in_chart = chart_extract(spec, state.values, eps)
    assert in_chart
    # n must match the amplitude coordinate -s A0 / (2 lam)
    n_ref = -(1.0 / (2.0 * geom.lam)) * normal_coupling(spec) * A0
    assert np.max(np.abs(n - n_ref)) <= TOL["init_roundtrip"]
    # phi must be the zero-mean spectral antiderivative of the solved gradient
    target = np.linalg.solve(geom.c * np.eye(geom.dim) + geom.i0b0, A0)
    k = grid.wavenumbers
    with np.errstate(divide="ignore", invalid="ignore"):
        anti = np.where(k != 0.0, np.fft.fft(target, axis=-1) / (1j * k), 0.0)
    phi_ref = np.fft.ifft(anti, axis=-1).real
    assert np.max(np.abs(phi - phi_ref)) <= TOL["init_roundtrip"]


def test_well_prepared_zero_data_gives_ground_state():
    grid = Grid(64, 2 * np.pi)
    geom, spec = preset("GP_SCALAR")
    state = well_prepared_init(spec, np.zeros((1, 64)), grid, 0.2)
    assert np.max(np.abs(state.values - 1.0)) == 0.0
    geom, spec = preset("AF_CHAIN")
    state = well_prepared_init(spec, np.zeros((2, 64)), grid, 0.2)
    staggered = np.tile([[1.0], [0.0], [0.0], [-1.0], [0.0], [0.0]], 64)
    assert np.max(np.abs(state.values - staggered)) <= 1e-15


# ---------------------------------------------------------------------------
# frame scaling
# ---------------------------------------------------------------------------


def test_rescaled_run_matches_lab_frame_run():
    # evolve the unscaled equation on the stretched domain, then read it back
    # through the long-wave change of variables; both runs are in the lab
    # frame, so the samples compare as they are
    eps, T = 0.2, 0.05
    n, length = 256, 8 * np.pi
    grid = Grid(n, length)
    geom, spec = preset("GP_SCALAR")
    s0 = well_prepared_init(spec, _bump(grid)[None, :], grid, eps)
    traj = record_micro(spec, s0, T=T, dt=T / 70, n_snapshots=2)
    u_rescaled = traj.values[-1][0]

    lab = Grid(n, length / eps)
    s_star = T / eps**3
    steps = int(round(s_star / 2e-3))
    dts = s_star / steps
    lin = np.exp(dts * 0.5j * (-lab.wavenumbers**2))
    v = s0.values[0].copy()
    for _ in range(steps):
        v = v * np.exp(0.5j * dts * (1 - np.abs(v) ** 2))
        v = np.fft.ifft(lin * np.fft.fft(v))
        v = v * np.exp(0.5j * dts * (1 - np.abs(v) ** 2))
    err = np.linalg.norm(v - u_rescaled) / np.linalg.norm(u_rescaled)
    assert err <= TOL["frame_consistency"]
