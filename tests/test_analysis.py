"""Tests for solitary waves, fixed points, Miura machinery, and the d=2
complex nonlinearity family."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kdvlab.analysis
from kdvlab.analysis import (
    SolitonSpec,
    build_soliton,
    complex_q_d2,
    find_fixed_point,
    miura_condition,
    miura_crosscheck,
    miura_map,
    solitary_profile,
)
from kdvlab.grid import Grid, fourier_shift, l2_norm
from kdvlab.kdv import LimitModel, QTensor, bilinear_apply, evolve_kdv
from kdvlab.models import limit_equation, preset
from oracles import derivative, scan_fixed_points, soliton_ode_residual

TOL = {
    "root_residual": 1e-12,
    "ode_residual": 1e-8,
    "negative_control": 0.1,
    "miura_scalar": 1e-6,
    "miura_d2": 1e-5,
    "transit_shape": 1e-4,
}


# ---------------------------------------------------------------------------
# fixed points
# ---------------------------------------------------------------------------


def test_fixed_point_scalar_unit():
    roots = find_fixed_point(QTensor([[[1.0]]]))
    assert any(abs(z[0] - 1.0) <= 1e-12 for z in roots)


@pytest.mark.parametrize("q", [2.0, -3.0, 0.25])
def test_fixed_point_scalar_scaling(q):
    roots = find_fixed_point(QTensor([[[q]]]))
    assert any(abs(z[0] - 1.0 / q) <= 1e-10 for z in roots)


def test_fixed_point_gp_canonical_vs_grid_search():
    model = limit_equation(preset("GP_SCALAR")[0])
    Q = model.canonical_q
    roots = find_fixed_point(Q)
    for z in roots:
        assert np.linalg.norm(Q.apply_vectors(z, z) - z) <= TOL["root_residual"]
    # brute-force oracle: scan [-5,5], keep the best nonzero candidate
    zs = np.linspace(-5.0, 5.0, 100001)
    vals = np.abs(Q.coeffs[0, 0, 0] * zs * zs - zs)
    vals[np.abs(zs) < 1e-3] = np.inf
    oracle = zs[int(np.argmin(vals))]
    assert min(abs(z[0] - oracle) for z in roots) <= 1e-4
    assert any(abs(z[0] + 1.0) <= 1e-10 for z in roots)


def test_fixed_point_rescaled_tensor_moves_root():
    Q = complex_q_d2(1.0, 1.0)
    roots = find_fixed_point(Q)
    s = 2.5
    scaled_roots = find_fixed_point(QTensor(s * Q.coeffs))
    for z in roots:
        assert min(np.linalg.norm(w - z / s) for w in scaled_roots) <= 1e-8


@pytest.mark.parametrize("alpha, beta, expected", [
    (1.0, 1.0, [[0.25, 0.0]]),
    (0.5 + 0.5j, 1.0, [[0.3794124634399706, -0.05553289075657185],
                       [-0.165903575023827, -0.5390440310305332],
                       [0.4180700589522774, -0.8791072887392107]]),
])
def test_fixed_point_d2_roots_pinned(alpha, beta, expected):
    # one root per real direction of the binary cubic with Q(r,r) != 0
    roots = find_fixed_point(complex_q_d2(alpha, beta))
    assert len(roots) == len(expected)
    for z, want in zip(roots, expected):
        assert np.max(np.abs(z - want)) <= 1e-12


def _same_roots(got, want):
    return len(got) == len(want) and all(np.max(np.abs(z - w)) <= 1e-12 for z, w in zip(got, want))


# root lists pinned from the multistart Newton the closed form replaced, by
# (kind, *params) and ("d2", alpha, beta); the closed form adds the third root
# of complex_q_d2(0.3j, 1), of norm 4.29, which no unit-norm start reached
_PINNED_ROOTS = {
    ("GP_SCALAR",): [[-1.0]],
    ("GP_COUPLED",): [[-1.0, 0.0], [0.0, -1.0], [-1.0000000000000075, -1.0000000000000002]],
    ("GP_COUPLED", 2.0, 0.5): [[-0.8628045903733246, 0.20579311443983592], [0.0, -1.0],
                               [-2.267630192234939, -1.901445288352409]],
    ("LL_EASY_CONE", 1.0, 1.0): [[1.0]],
    ("LL_EASY_CONE", 2.0, 0.5, 1.0): [[1.0000000000000002]],
    ("d2", 1.0, 1.0): [[0.25, 0.0]],
    ("d2", 0.5 + 0.5j, 1.0): [[0.3794124634399706, -0.05553289075657185],
                              [-0.165903575023827, -0.5390440310305332],
                              [0.41807005895232424, -0.8791072887398949]],
    ("d2", 1.0, 0.0): [[0.3333333333333333, 1.051636878270389e-17]],
    ("d2", 0.3j, 1.0): [[-0.2567666548320562, -0.49623206423356536],
                        [0.951884074390914, -0.09649721104885463],
                        [-2.34763061671262, 3.594794916778814]],
}


@pytest.mark.parametrize("kind, params", [
    ("GP_SCALAR", None), ("GP_COUPLED", None), ("GP_COUPLED", {"lam": 2.0, "gamma": 0.5}),
    ("LL_EASY_CONE", {"alpha": 1.0, "theta0": 1.0}),
    ("LL_EASY_CONE", {"alpha": 2.0, "theta0": 0.5, "beta": 1.0}),
])
def test_fixed_point_start_set_keeps_preset_roots(kind, params):
    # the preset limits with a nonzero canonical nonlinearity (the
    # easy-plane and antiferromagnet limits have Q = 0)
    Q = limit_equation(preset(kind, params)[0]).canonical_q
    assert _same_roots(find_fixed_point(Q), _PINNED_ROOTS[(kind, *(params or {}).values())])


@pytest.mark.parametrize("alpha, beta", [(1.0, 1.0), (0.5 + 0.5j, 1.0), (1.0, 0.0), (0.3j, 1.0)])
def test_fixed_point_start_set_keeps_complex_q_d2_roots(alpha, beta):
    assert _same_roots(find_fixed_point(complex_q_d2(alpha, beta)), _PINNED_ROOTS["d2", alpha, beta])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), d=st.integers(1, 2))
def test_fixed_point_complete_property(seed, d):
    # the closed form returns every root the direction scan finds; a root's
    # residual is bounded relative to |z|^2, the size of the terms of Q(z,z)
    # whose rounding it cannot go below
    Q = QTensor(np.random.default_rng(seed).normal(size=(d, d, d)))
    got, want = find_fixed_point(Q), scan_fixed_points(Q)
    assert len(got) == len(want)
    for w in want:
        assert min(np.linalg.norm(z - w) for z in got) <= 1e-9 * max(1.0, np.linalg.norm(w))
    for z in got:
        assert np.linalg.norm(Q.apply_vectors(z, z) - z) <= TOL["root_residual"] * max(1.0, z @ z)


def test_fixed_point_rejects_zero_tensor():
    with pytest.raises(ValueError):
        find_fixed_point(QTensor(np.zeros((2, 2, 2))))


def test_fixed_point_rejects_d3():
    with pytest.raises(ValueError, match="d = 3"):
        find_fixed_point(QTensor(np.random.default_rng(0).normal(size=(3, 3, 3))))


# ---------------------------------------------------------------------------
# solitary waves
# ---------------------------------------------------------------------------


def test_soliton_spec_validation():
    with pytest.raises(ValueError):
        SolitonSpec(speed=0.0, direction=[1.0])
    with pytest.raises(ValueError, match="fixed point"):
        SolitonSpec(speed=1.0, direction=[0.5], q_tensor=QTensor([[[1.0]]]))
    SolitonSpec(speed=1.0, direction=[1.0], q_tensor=QTensor([[[1.0]]]))


@pytest.mark.parametrize("seed", [434, 974, 1017, 1611, 1632])
def test_soliton_spec_accepts_every_returned_root(seed):
    # each of these Gaussian tensors has a root of norm 1e3-4e4 whose
    # Q(z,z) rounds to a defect above 1e-10; the bound scales with |z|^2,
    # as find_fixed_point's does, so every root it returns is a direction
    Q = QTensor(np.random.default_rng(seed).standard_normal((2, 2, 2)))
    roots = find_fixed_point(Q)
    assert max(np.linalg.norm(Q.apply_vectors(z, z) - z) for z in roots) > 1e-10
    for z in roots:
        SolitonSpec(speed=1.0, direction=z, q_tensor=Q)


def test_build_soliton_rejects_overflowing_wave():
    # c_w q0(0) = -1.5 c_w overflows at c_w = 1.7e308
    grid = Grid(64, 8.0)
    with pytest.raises(ValueError, match="not finite"):
        build_soliton(SolitonSpec(speed=1.7e308, direction=[1.0]), grid)


def test_build_soliton_samples_formula():
    grid = Grid(512, 64 * np.pi)
    spec = SolitonSpec(speed=2.0, direction=[-1.0])
    u = build_soliton(spec, grid)
    x0 = 32 * np.pi
    expected = 2.0 * solitary_profile(np.sqrt(2.0) * (grid.x - x0)) * (-1.0)
    assert np.max(np.abs(u[0] - expected)) <= 1e-15


def test_build_soliton_rejects_short_domain():
    grid = Grid(64, 8.0)
    with pytest.raises(ValueError, match="tails"):
        build_soliton(SolitonSpec(speed=1.0, direction=[1.0]), grid)


def test_soliton_ode_residual_true_profile():
    grid = Grid(1024, 64 * np.pi)
    res = soliton_ode_residual(QTensor([[[1.0]]]), [1.0], grid)
    assert res <= TOL["ode_residual"]


def test_soliton_ode_residual_negative_control():
    # two-thirds of the solitary amplitude: must fail loudly
    grid = Grid(1024, 64 * np.pi)
    wrong = lambda xi: (2.0 / 3.0) * solitary_profile(xi)
    res = soliton_ode_residual(QTensor([[[1.0]]]), [1.0], grid, profile=wrong)
    assert res > TOL["negative_control"]


def test_soliton_residual_scaling_invariance():
    # the c-speed family member scales the speed-c ODE residual by exactly
    # c^(9/4) once the domain is rescaled alongside; use a detuned amplitude
    # so the residual sits far above roundoff
    Q = QTensor([[[1.0]]])
    detuned = lambda xi: 1.2 * solitary_profile(xi)

    def speed_c_residual(c):
        grid = Grid(1024, 64 * np.pi / np.sqrt(c))
        x0 = 0.5 * grid.length
        P = c * detuned(np.sqrt(c) * (grid.x - x0))[None, :]
        flux = bilinear_apply(Q.coeffs, P, P)
        resid = c * grid.diff(P) - derivative(P, grid, 3) + grid.diff(flux)
        return l2_norm(resid, grid)

    base = speed_c_residual(1.0)
    assert base > TOL["negative_control"]
    for c in (2.0, 4.0):
        ratio = speed_c_residual(c) / (c ** (9.0 / 4.0) * base)
        assert abs(ratio - 1.0) <= 1e-10


def test_soliton_transit_preserves_shape():
    # one full domain transit of the canonical scalar-condensate soliton,
    # under the unit-scale model of the canonical equation it solves: the
    # exact wave u0(x + c_w T) is u0 itself again
    Q = limit_equation(preset("GP_SCALAR")[0]).canonical_q
    model = LimitModel(Q, 1.0)
    z = find_fixed_point(Q)[0]
    grid = Grid(512, 16 * np.pi)
    speed = 4.0
    u0 = build_soliton(SolitonSpec(speed=speed, direction=z, q_tensor=Q), grid)
    T = grid.length / speed
    traj = evolve_kdv(model, u0, grid, T, dt=1e-3, n_snapshots=5)
    assert not traj.aborted
    exact = fourier_shift(u0, grid, -speed * T)
    err = l2_norm(traj.meta["snapshots"][-1] - exact, grid) / l2_norm(u0, grid)
    assert err <= TOL["transit_shape"]


# ---------------------------------------------------------------------------
# Miura transform
# ---------------------------------------------------------------------------


def test_miura_condition_scalar_always_zero():
    for q in (1.0, -3.0, 0.5):
        assert miura_condition(QTensor([[[q]]])) == 0.0


def test_miura_condition_equal_moduli():
    rng = np.random.default_rng(5)
    for _ in range(5):
        r = rng.uniform(0.3, 2.0)
        a = r * np.exp(1j * rng.uniform(0, 2 * np.pi))
        b = r * np.exp(1j * rng.uniform(0, 2 * np.pi))
        assert miura_condition(complex_q_d2(a, b)) <= 1e-12


def test_miura_condition_unequal_moduli_fails():
    assert miura_condition(complex_q_d2(1.0, 2.0)) > 0.1


def test_miura_condition_orthogonal_invariance():
    rng = np.random.default_rng(9)
    Q = complex_q_d2(1.0 + 0.5j, 2.0)
    base = miura_condition(Q)
    theta = rng.uniform(0, 2 * np.pi)
    R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    conj = np.einsum("abm,ai,bj,mk->ijk", Q.coeffs, R, R, R)
    assert abs(miura_condition(QTensor(conj)) - base) <= 1e-12


def test_miura_map_constant():
    grid = Grid(64, 2 * np.pi)
    v = np.full((1, 64), 3.0)
    u = miura_map(QTensor([[[0.5]]]), v, grid)
    assert np.max(np.abs(u - 0.5 * 9.0 / 3.0)) <= 1e-12


def test_miura_crosscheck_constant_static():
    grid = Grid(64, 2 * np.pi)
    v = np.full((1, 64), 0.7)
    err, aborted = miura_crosscheck(QTensor([[[0.5]]]), v, grid, T=0.2, dt=1e-2)
    assert not aborted and err <= 1e-13


def test_miura_crosscheck_classical_scalar():
    # u = dx v + v^2/6 intertwines the modified and plain flows exactly;
    # the measured discrepancy is pure discretization error
    grid = Grid(512, 2 * np.pi)
    v0 = np.sin(grid.x)[None, :]
    err, aborted = miura_crosscheck(QTensor([[[0.5]]]), v0, grid, T=0.5, dt=1e-3)
    assert not aborted and err <= TOL["miura_scalar"]


def test_miura_crosscheck_dt_sign():
    # dt = 0 is rejected; a negative dt runs both legs backward in time
    grid = Grid(64, 2 * np.pi)
    v0 = 0.3 * np.sin(grid.x)[None, :]
    Q = QTensor([[[0.5]]])
    with pytest.raises(ValueError, match="dt"):
        miura_crosscheck(Q, v0, grid, T=0.1, dt=0.0)
    err, aborted = miura_crosscheck(Q, v0, grid, T=0.1, dt=-1e-3)
    assert not aborted and err <= TOL["miura_scalar"]


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    amp=st.floats(0.1, 1.0),
    q=st.floats(0.25, 1.0),
    sign=st.sampled_from([1.0, -1.0]),
)
@example(seed=5036, amp=1.0, q=1.0, sign=1.0)
def test_miura_square_commutes_property(seed, amp, q, sign):
    # random smooth scalar data (modes 0..3, constant offset included):
    # mapping the mKdV-evolved state must match KdV-evolving the mapped data
    # up to the legs' fourth-order time error.  At dt = 1e-3 that error can
    # pass 1e-6 (1.40e-6 at the pinned example, 1.34e-6 at n = 128, so it is
    # not spatial); halving dt cuts it about 16x (at least 15.8 measured
    # over the data domain), where a fault in the map or in one leg would
    # not shrink
    grid = Grid(64, 2 * np.pi)
    rng = np.random.default_rng(seed)
    modes = np.arange(4)[:, None]
    a, b = rng.normal(size=(2, 4))
    v = a @ np.cos(modes * grid.x) + b @ np.sin(modes * grid.x)
    v0 = (amp * v / np.max(np.abs(v)))[None, :]
    Q = QTensor([[[sign * q]]])
    coarse, aborted = miura_crosscheck(Q, v0, grid, T=0.1, dt=1e-3)
    assert not aborted
    err, aborted = miura_crosscheck(Q, v0, grid, T=0.1, dt=5e-4)
    assert not aborted and err <= TOL["miura_scalar"]
    assert coarse >= 8.0 * err


def test_miura_crosscheck_d2_equal_moduli():
    Q = complex_q_d2(1.0, 1.0)
    errs = []
    for n in (128, 256):
        grid = Grid(n, 2 * np.pi)
        v0 = 0.5 * np.stack([np.sin(grid.x), np.cos(2 * grid.x)])
        err, aborted = miura_crosscheck(Q, v0, grid, T=0.5, dt=1e-3)
        assert not aborted
        errs.append(err)
    # spatially converged at both resolutions; what remains is the
    # wavenumber-weighted time-stepping error, small at either size
    assert max(errs) <= TOL["miura_d2"]


def test_miura_crosscheck_rejects_aborted_kdv_leg(monkeypatch):
    # an aborted KdV leg has no snapshots past its abort time; the crosscheck
    # compares only the times both legs reached and names the aborted leg,
    # so the caller cannot score the missing times as agreement
    
    real_evolve = kdvlab.analysis.evolve_kdv

    def aborted(*args, **kwargs):
        traj = real_evolve(*args, **kwargs)
        del traj.times[1:]
        traj.meta["snapshots"] = traj.meta["snapshots"][:1]
        traj.aborted = True
        traj.abort_reason = "gradient blow-up"
        traj.abort_time = 0.01
        return traj

    monkeypatch.setattr(kdvlab.analysis, "evolve_kdv", aborted)
    grid = Grid(64, 2 * np.pi)
    v0 = 0.1 * np.sin(grid.x)[None, :]
    Q = QTensor([[[0.5]]])
    err, legs = miura_crosscheck(Q, v0, grid, T=0.1, dt=1e-2)
    assert list(legs) == ["kdv"] and legs["kdv"].abort_reason == "gradient blow-up"
    at_start = l2_norm(miura_map(Q, v0, grid) - legs["kdv"].meta["snapshots"][0], grid)
    assert err == at_start  # t = 0, the one time both legs reached


def test_miura_mkdv_leg_transforms_per_step(monkeypatch, fft_calls):
    # transforms made outside the KdV leg, per step: the mKdV stepper alone
    
    real_evolve = kdvlab.analysis.evolve_kdv
    in_kdv_leg = {"total": 0}

    def counted_evolve(*args, **kwargs):
        before = fft_calls.total()
        try:
            return real_evolve(*args, **kwargs)
        finally:
            in_kdv_leg["total"] += fft_calls.total() - before

    monkeypatch.setattr(kdvlab.analysis, "evolve_kdv", counted_evolve)
    grid = Grid(64, 2 * np.pi)
    v0 = 0.3 * np.stack([np.sin(grid.x), np.cos(2 * grid.x)])
    Q = complex_q_d2(1.0, 1.0)

    def mkdv_transforms(steps):
        total, kdv = fft_calls.total(), in_kdv_leg["total"]
        miura_crosscheck(Q, v0, grid, T=steps * 1e-3, dt=1e-3, n_snapshots=2)
        return (fft_calls.total() - total) - (in_kdv_leg["total"] - kdv)

    # the stepper's 8; the gradient guard's bound screens each step with none
    assert (mkdv_transforms(20) - mkdv_transforms(10)) / 10 == 8


def test_miura_crosscheck_rejects_violating_tensor():
    grid = Grid(64, 2 * np.pi)
    v0 = np.zeros((2, 64))
    with pytest.raises(ValueError, match="Miura condition"):
        miura_crosscheck(complex_q_d2(1.0, 2.0), v0, grid, T=0.1, dt=1e-2)


# ---------------------------------------------------------------------------
# complex d=2 parameterization
# ---------------------------------------------------------------------------


def test_complex_q_zero():
    assert complex_q_d2(0.0, 0.0).is_zero


def test_complex_q_pure_conjugate():
    Q = complex_q_d2(0.0, 1.0)
    out = Q.apply_vectors([1.0, 0.0], [1.0, 0.0])
    assert np.allclose(out, [1.0, 0.0], atol=1e-15)


def test_complex_q_orthogonal_inputs_annihilate():
    Q = complex_q_d2(1.0, 1.0)
    out = Q.apply_vectors([1.0, 0.0], [0.0, 1.0])
    assert np.max(np.abs(out)) <= 1e-15


def test_complex_q_symmetry_defect():
    rng = np.random.default_rng(17)
    for _ in range(5):
        a = rng.normal() + 1j * rng.normal()
        b = rng.normal() + 1j * rng.normal()
        assert complex_q_d2(a, b).symmetry_defect <= 1e-15
