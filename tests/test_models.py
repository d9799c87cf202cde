"""Tests for the model presets, limit assembly, and chart maps."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from kdvlab.grid import Grid
from kdvlab.kdv import QTensor
from kdvlab.models import (
    GeometryData,
    MicroModelSpec,
    chart_assemble,
    chart_extract,
    chart_radius,
    dphi_matrix,
    limit_equation,
    limit_tensor,
    normal_coupling,
    preset,
)
from kdvlab.models import _unwrap_periodic
from oracles import unwrap_periodic

TOL = {
    "coeff": 1e-12,
    "roundtrip": 1e-12,
    "chart": 1e-9,
}


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def test_preset_gp_scalar_constants():
    geom, spec = preset("GP_SCALAR")
    assert geom.lam == 1.0 and geom.mu == 0.0 and geom.c == 1.0
    assert geom.c**2 == geom.lam - geom.mu
    assert geom.ii_perp[0, 0, 0] == -1.0
    assert geom.f1[0, 0, 0] == 3.0
    assert np.all(geom.i0b0 == 0.0)
    assert spec.kind == "GP_SCALAR" and spec.geometry.dim == 1 and spec.is_complex


def test_preset_af_chain_constants():
    geom, spec = preset("AF_CHAIN")
    assert geom.lam == 2.0 and geom.mu == 1.0 and geom.c == 1.0
    assert geom.c**2 == geom.lam - geom.mu
    assert np.array_equal(geom.i0b0, [[0.0, -1.0], [1.0, 0.0]])
    assert np.all(geom.ii_perp == 0.0) and np.all(geom.f1 == 0.0)
    assert spec.geometry.dim == 2 and spec.n_components == 6 and not spec.is_complex


def test_preset_easy_plane_constants():
    geom, _ = preset("ll_easy_plane", {"k": 4.0})
    assert geom.lam == 4.0 and geom.c == 2.0
    assert geom.c**2 == geom.lam - geom.mu
    assert np.all(geom.ii_perp == 0.0) and np.all(geom.f1 == 0.0)


def test_preset_easy_cone_constants():
    alpha, beta, theta0 = 2.0, 0.7, 1.1
    geom, spec = preset("LL_EASY_CONE", {"alpha": alpha, "beta": beta, "theta0": theta0})
    s, co = np.sin(theta0), np.cos(theta0)
    assert abs(geom.lam - alpha * s * s) <= 1e-15
    b = alpha * s * co + beta * s**3  # the cone constant
    assert abs(geom.ii_perp[0, 0, 0] - co / s) <= 1e-15
    assert abs(geom.f1[0, 0, 0] + 3.0 * b) <= 1e-14
    assert abs(geom.c**2 - (geom.lam - geom.mu)) <= 4e-16


def test_preset_cone_at_right_angle_reduces_to_easy_plane():
    alpha = 3.0
    cone, _ = preset("LL_EASY_CONE", {"alpha": alpha, "beta": 0.0, "theta0": np.pi / 2})
    plane, _ = preset("LL_EASY_PLANE", {"k": alpha})
    assert abs(cone.lam - plane.lam) <= 1e-14
    assert abs(cone.c - plane.c) <= 1e-14
    assert np.max(np.abs(cone.ii_perp)) <= TOL["coeff"]
    assert np.max(np.abs(cone.f1)) <= TOL["coeff"]


def test_preset_coupled_constants():
    lam, gamma = 1.3, 0.7
    geom, spec = preset("GP_COUPLED", {"lam": lam, "gamma": gamma})
    assert geom.dim == 2 and geom.mu == 0.0
    assert abs(geom.c - np.sqrt(lam)) <= 1e-15
    for k in range(2):
        assert geom.ii_perp[k, k, k] == -1.0
        assert geom.f1[k, k, k] == 3.0 * lam
    for idx in ((0, 0, 1), (0, 1, 0), (1, 0, 0)):
        assert geom.f1[idx] == -8.0 * gamma
    assert geom.f1[1, 1, 0] == 0.0


@pytest.mark.parametrize(
    "kind,params",
    [
        ("LL_EASY_CONE", {"alpha": -1.0, "theta0": 1.0}),
        ("LL_EASY_CONE", {"alpha": 1.0, "theta0": 0.0}),
        ("LL_EASY_CONE", {"alpha": 1.0, "theta0": np.pi}),
        ("LL_EASY_CONE", {"theta0": 1.0}),
        ("LL_EASY_PLANE", {"k": 0.0}),
        ("GP_COUPLED", {"lam": -2.0}),
        ("GP_SCALAR", {"bogus": 1.0}),
    ],
)
def test_preset_invalid_params_rejected(kind, params):
    with pytest.raises(ValueError):
        preset(kind, params)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        MicroModelSpec("NOT_A_MODEL")


def test_geometry_validation():
    with pytest.raises(ValueError):
        GeometryData(1, lam=1.0, mu=1.0)  # mu must stay below lam
    with pytest.raises(ValueError):
        GeometryData(1, lam=1.0, mu=-0.1)
    with pytest.raises(ValueError):
        GeometryData(1, lam=0.0)
    ii = np.zeros((2, 2, 2))
    ii[0, 1, 0] = 1.0  # not symmetric in the two arguments
    with pytest.raises(ValueError):
        GeometryData(2, lam=1.0, ii_perp=ii)
    ii = np.zeros((2, 2, 2))
    ii[0, 0, 1] = 1.0  # (i,k) matrix for fixed j is asymmetric
    with pytest.raises(ValueError):
        GeometryData(2, lam=1.0, ii_perp=ii)
    f1 = np.zeros((2, 2, 2))
    f1[0, 1, 0] = 1.0
    with pytest.raises(ValueError):
        GeometryData(2, lam=1.0, f1=f1)


# ---------------------------------------------------------------------------
# limit assembly
# ---------------------------------------------------------------------------


def test_limit_gp_scalar_coefficient():
    geom, _ = preset("GP_SCALAR")
    assert abs(limit_tensor(geom)[0, 0, 0] + 3.0) <= TOL["coeff"]
    model = limit_equation(geom)
    assert model.dispersion == 1.0
    assert model.scale["time_factor"] == 8.0
    assert abs(model.scale["amplitude"] + 6.0) <= TOL["coeff"]
    assert abs(model.canonical_q.coeffs[0, 0, 0] + 1.0) <= TOL["coeff"]


@pytest.mark.parametrize("kind,params", [("LL_EASY_PLANE", {"k": 2.5}), ("AF_CHAIN", None)])
def test_limit_zero_nonlinearity_presets(kind, params):
    geom, _ = preset(kind, params)
    model = limit_equation(geom)
    assert np.max(np.abs(limit_tensor(geom))) <= TOL["coeff"]
    assert model.canonical_q.norm() <= TOL["coeff"]
    assert model.scale["amplitude"] == 1.0
    assert model.scale["time_factor"] == 8.0 * geom.c


def test_limit_easy_cone_coefficient_formula():
    rng = np.random.default_rng(7)
    for _ in range(10):
        alpha = float(rng.uniform(0.2, 3.0))
        beta = float(rng.uniform(-2.0, 2.0))
        theta0 = float(rng.uniform(0.15, np.pi - 0.15))
        geom, _ = preset("LL_EASY_CONE", {"alpha": alpha, "beta": beta, "theta0": theta0})
        s, co = np.sin(theta0), np.cos(theta0)
        b = alpha * s * co + beta * s**3
        lam = alpha * s * s
        expected = 1.5 * co / s + 3.0 * b / (2.0 * lam)
        assert abs(limit_tensor(geom)[0, 0, 0] - expected) <= TOL["coeff"] * max(1.0, abs(expected))


def test_limit_coupled_diagonal_and_coupling():
    lam, gamma = 1.3, 0.7
    geom, _ = preset("GP_COUPLED", {"lam": lam, "gamma": gamma})
    G = limit_tensor(geom)
    for k in range(2):
        assert abs(G[k, k, k] + 3.0) <= TOL["coeff"]
    for idx in ((0, 0, 1), (0, 1, 0), (1, 0, 0)):
        assert abs(G[idx] - 4.0 * gamma / lam) <= TOL["coeff"]
    assert limit_equation(geom).canonical_q.symmetry_defect <= TOL["coeff"]


def test_limit_af_uses_first_order_matrix():
    # the i0B0 block feeds the prefactor matrix even though ii_perp = 0
    geom, _ = preset("AF_CHAIN")
    M = (1.5 - 2.0 * geom.mu / geom.lam) * np.eye(2) - (2.0 * geom.c / geom.lam) * geom.i0b0
    expected = 0.5 * np.eye(2) - np.array([[0.0, -1.0], [1.0, 0.0]])
    assert np.max(np.abs(M - expected)) <= 1e-15


def test_raw_to_canonical_round_trip_on_tensors():
    for kind, params in [
        ("GP_SCALAR", None),
        ("GP_COUPLED", {"lam": 2.0, "gamma": 0.4}),
        ("LL_EASY_CONE", {"alpha": 1.4, "beta": 0.3, "theta0": 0.9}),
    ]:
        geom, _ = preset(kind, params)
        model = limit_equation(geom)
        s = model.scale["amplitude"]
        G = limit_tensor(geom)
        sym = 0.5 * (G + G.transpose(1, 0, 2))
        recovered = -(s / 2.0) * model.canonical_q.coeffs
        assert np.max(np.abs(recovered - sym)) <= TOL["roundtrip"]


def _coupled_gp_geometry(lam, f1):
    """A d-component condensate geometry: diagonal shape operator, cubic f1."""
    d = len(f1)
    ii = np.zeros((d, d, d))
    for k in range(d):
        ii[k, k, k] = -1.0
    return GeometryData(d, lam=lam, mu=0.0, ii_perp=ii, f1=f1)


def test_coupled_gp_limit_zero_f1_decouples():
    G = limit_tensor(_coupled_gp_geometry(1.0, np.zeros((2, 2, 2))))
    for k in range(2):
        assert abs(G[k, k, k] + 1.5) <= TOL["coeff"]
    off = G.copy()
    for k in range(2):
        off[k, k, k] = 0.0
    assert np.max(np.abs(off)) == 0.0


def test_coupled_gp_limit_matches_scalar_path():
    direct = limit_equation(preset("GP_SCALAR")[0])
    via_coupled = limit_equation(_coupled_gp_geometry(1.0, [[[3.0]]]))
    assert np.array_equal(limit_tensor(preset("GP_SCALAR")[0]),
                          limit_tensor(_coupled_gp_geometry(1.0, [[[3.0]]])))
    assert direct.scale == via_coupled.scale
    assert np.array_equal(direct.canonical_q.coeffs, via_coupled.canonical_q.coeffs)


def test_coupled_gp_limit_cross_coupling_is_raw_only():
    # f1(rho, dx rho)_k = rho_{k'} dx rho_{k'} with k' != k: a legitimate
    # symmetric bilinear, but the rescaled tensor is not fully symmetric, so
    # the limit has no canonical form and limit_equation refuses it
    f1 = np.zeros((2, 2, 2))
    f1[1, 1, 0] = 1.0
    f1[0, 0, 1] = 1.0
    geom = _coupled_gp_geometry(1.0, f1)
    G = limit_tensor(geom)
    sym = 0.5 * (G + G.transpose(1, 0, 2))
    assert np.max(np.abs(G - sym)) <= 1e-15
    # the canonical candidate -(2/s) sym(G), s = -2 max|sym(G)|
    assert 0.2 < QTensor(sym / np.max(np.abs(sym))).symmetry_defect < 0.25
    with pytest.raises(ValueError, match="no canonical form"):
        limit_equation(geom)


# magnitudes over 16 decades, either sign where preset takes any sign, and
# theta0 within 1e-4 of its open interval: the ranges preset accepts, short
# of the extremes where the geometry underflows or G overflows
_MAGNITUDE = st.floats(-8.0, 8.0).map(lambda e: 10.0 ** e)
_SIGNED = st.tuples(st.sampled_from([-1.0, 0.0, 1.0]), _MAGNITUDE).map(lambda t: t[0] * t[1])
_PRESET_PARAMS = st.one_of(
    st.tuples(st.just("GP_SCALAR"), st.just({})),
    st.tuples(st.just("GP_COUPLED"), st.fixed_dictionaries({"lam": _MAGNITUDE, "gamma": _SIGNED})),
    st.tuples(st.just("LL_EASY_PLANE"), st.fixed_dictionaries({"k": _MAGNITUDE})),
    st.tuples(st.just("LL_EASY_CONE"), st.fixed_dictionaries({
        "alpha": _MAGNITUDE, "beta": _SIGNED,
        "theta0": st.floats(1e-4, np.pi - 1e-4)})),
    st.tuples(st.just("AF_CHAIN"), st.just({})),
)


@settings(max_examples=200, deadline=None)
@given(_PRESET_PARAMS)
def test_every_preset_limit_has_a_canonical_form_property(kind_params):
    # no config reaches a limit without a conservative rewrite: for every
    # preset and any parameters it accepts, limit_equation returns a model
    # whose Q is fully symmetric and recovers sym(G) through the amplitude
    kind, params = kind_params
    geom, _ = preset(kind, params)
    model = limit_equation(geom)
    q = model.canonical_q.coeffs
    for perm in [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]:
        assert np.max(np.abs(q - q.transpose(perm))) <= TOL["coeff"]
    assert model.canonical_q.symmetry_defect <= TOL["coeff"]
    G = limit_tensor(geom)
    sym = 0.5 * (G + G.transpose(1, 0, 2))
    assert np.max(np.abs(G - sym)) <= TOL["coeff"] * max(1.0, np.max(np.abs(G)))
    scale = max(1.0, np.max(np.abs(sym)))
    assert np.max(np.abs(-(model.scale["amplitude"] / 2.0) * q - sym)) <= TOL["roundtrip"] * scale


def test_coupled_gp_limit_rejects_asymmetric_f1():
    f1 = np.zeros((2, 2, 2))
    f1[0, 1, 0] = 1.0
    with pytest.raises(ValueError, match="symmetric"):
        _coupled_gp_geometry(1.0, f1)


# ---------------------------------------------------------------------------
# charts
# ---------------------------------------------------------------------------


CHART_PRESETS = [
    ("GP_SCALAR", None),
    ("GP_COUPLED", {"lam": 1.5, "gamma": 0.2}),
    ("LL_EASY_PLANE", {"k": 2.0}),
    ("LL_EASY_CONE", {"alpha": 1.0, "beta": 0.4, "theta0": 1.0}),
    ("AF_CHAIN", None),
]


def _smooth_fields(grid, dim, scale_phi=1.0, scale_n=1.0, seed=0):
    rng = np.random.default_rng(seed)
    x = grid.x
    phi = np.zeros((dim, grid.n_points))
    n = np.zeros((dim, grid.n_points))
    for a in range(dim):
        c = rng.normal(size=4)
        phi[a] = scale_phi * (c[0] * np.sin(2 * np.pi * x / grid.length) + c[1] * np.cos(4 * np.pi * x / grid.length))
        n[a] = scale_n * (c[2] * np.sin(4 * np.pi * x / grid.length) + c[3] * np.cos(2 * np.pi * x / grid.length))
    return phi, n


@pytest.mark.parametrize("kind,params", CHART_PRESETS)
def test_chart_round_trip(kind, params):
    _, spec = preset(kind, params)
    grid = Grid(128, 2 * np.pi)
    eps = 0.1
    phi, n = _smooth_fields(grid, spec.geometry.dim, scale_phi=2.0, scale_n=0.8, seed=3)
    state = chart_assemble(spec, phi, n, eps)
    phi2, n2, in_chart = chart_extract(spec, state, eps)
    assert in_chart
    assert np.max(np.abs(phi2 - phi)) <= TOL["chart"]
    assert np.max(np.abs(n2 - n)) <= 1e-7  # extraction divides roundoff by eps^2


def _normal_radius(spec):
    """Bound on eps^2 |n| inside which chart_extract inverts chart_assemble."""
    if spec.kind in ("GP_SCALAR", "GP_COUPLED"):
        return 0.5  # modulus 1 + eps^2 n in [0.5, 1.5]
    if spec.kind == "LL_EASY_CONE":
        theta0 = float(spec.params["theta0"])
        return min(theta0, np.pi - theta0)  # polar angle in (0, pi)
    return 0.5 * np.pi  # tilt off the plane / geodesic offset of the pair


@pytest.mark.parametrize("kind,params", CHART_PRESETS)
@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    eps=st.floats(0.05, 0.5),
    phase=st.floats(0.0, 0.8),
    normal=st.floats(0.0, 0.8),
)
def test_chart_round_trip_property(kind, params, seed, eps, phase, normal):
    # random smooth fields with sup |eps phi| and sup |eps^2 n| (pointwise
    # vector norms) up to 80% of the chart's reach, constant offsets included
    _, spec = preset(kind, params)
    grid = Grid(128, 2 * np.pi)
    rng = np.random.default_rng(seed)
    modes = np.arange(5)[:, None]

    def smooth():
        a, b = rng.normal(size=(2, spec.geometry.dim, 5))
        f = a @ np.cos(modes * grid.x) + b @ np.sin(modes * grid.x)
        return f / np.max(np.linalg.norm(f, axis=0))  # pointwise norm <= 1

    phi = phase * chart_radius(spec) / eps * smooth()
    n = normal * _normal_radius(spec) / eps**2 * smooth()
    state = chart_assemble(spec, phi, n, eps)
    phi2, n2, in_chart = chart_extract(spec, state, eps)
    assert in_chart
    assert np.max(np.abs(phi2 - phi)) <= TOL["chart"]
    assert np.max(np.abs(n2 - n)) <= 1e-7


def test_chart_gp_scalar_values():
    _, spec = preset("GP_SCALAR")
    eps = 0.1
    phi = np.array([[3.0]])
    n = np.array([[0.5]])
    state = chart_assemble(spec, phi, n, eps)
    expected = (1.0 + eps**2 * 0.5) * np.exp(1j * 0.3)
    assert abs(state[0, 0] - expected) <= 1e-15


def test_chart_plane_azimuth_example():
    # azimuth 0.3 at eps=0.1 is phase coordinate phi=3.0 on the unit normal
    _, spec = preset("LL_EASY_PLANE")
    eps = 0.1
    state = np.array([[np.cos(0.3)], [np.sin(0.3)], [0.0]])
    phi, n, in_chart = chart_extract(spec, state, eps)
    assert in_chart
    assert abs(phi[0, 0] - 3.0) <= 1e-12
    assert abs(n[0, 0]) <= 1e-12


def test_chart_af_ground_state():
    _, spec = preset("AF_CHAIN")
    z = np.zeros((2, 8))
    state = chart_assemble(spec, z, z, 0.1)
    assert np.allclose(state[:3], [[1.0], [0.0], [0.0]], atol=1e-15)
    assert np.allclose(state[3:], [[-1.0], [0.0], [0.0]], atol=1e-15)


def test_chart_unit_norms():
    for kind, params in [
        ("LL_EASY_PLANE", None),
        ("LL_EASY_CONE", {"alpha": 1.0, "theta0": 0.8}),
        ("AF_CHAIN", None),
    ]:
        _, spec = preset(kind, params)
        grid = Grid(64, 2 * np.pi)
        phi, n = _smooth_fields(grid, spec.geometry.dim, seed=11)
        state = chart_assemble(spec, phi, n, 0.2)
        if kind == "AF_CHAIN":
            norms = [np.sum(state[:3] ** 2, axis=0), np.sum(state[3:] ** 2, axis=0)]
        else:
            norms = [np.sum(state**2, axis=0)]
        for nr in norms:
            assert np.max(np.abs(nr - 1.0)) <= 1e-12


def test_chart_winding_detected():
    _, spec = preset("GP_SCALAR")
    grid = Grid(64, 2 * np.pi)
    state = np.exp(1j * grid.x)[None, :]  # one full phase turn: not chart-valued
    _, _, in_chart = chart_extract(spec, state, 0.1)
    assert not in_chart
    assert np.any(_unwrap_periodic(np.angle(state))[1] != 0)


# samples whose differences are exactly +-pi (np.unwrap's boundary rule),
# just above pi, 3 pi, or -0.0 (np.unwrap adds +0.0 to every later sample)
_ANGLES = st.one_of(
    st.sampled_from([0.0, -0.0, np.pi, -np.pi, np.nextafter(np.pi, 4.0), 3.0 * np.pi, -3.0 * np.pi]),
    st.floats(-10.0, 10.0),
)
_BOUNDARY_ROW = np.array([-0.0, np.pi, 0.0, -np.pi, -0.0, np.nextafter(np.pi, 4.0), 0.0, 3.0 * np.pi, -0.0])


@settings(max_examples=300, deadline=None)
@given(
    raw=st.sampled_from([(), (2,), (3, 2)]).flatmap(lambda lead: st.integers(0, 8).flatmap(
        lambda half: arrays(np.float64, lead + (2 * half + 1,), elements=_ANGLES))),
    nans=st.lists(st.tuples(st.integers(0, 5), st.integers(0, 16), st.booleans()), max_size=2),
    layout=st.sampled_from(["C", "F", "strided"]),
)
@example(raw=_BOUNDARY_ROW, nans=[], layout="C")
@example(raw=np.stack([_BOUNDARY_ROW, -_BOUNDARY_ROW]), nans=[(1, 4, False)], layout="C")
@example(raw=np.stack([[_BOUNDARY_ROW, -_BOUNDARY_ROW]] * 3), nans=[(2, 0, True), (5, 8, False)],
         layout="C")
@example(raw=np.stack([[_BOUNDARY_ROW, -_BOUNDARY_ROW]] * 3), nans=[], layout="F")
def test_unwrap_periodic_matches_numpy_unwrap_bitwise(raw, nans, layout):
    # shapes (N,), (d, N) and (S, d, N) with odd N; ``nans`` puts a NaN into
    # one sample of a row, or fills the row with NaN; ``layout`` passes the
    # array C-contiguous, Fortran-ordered (a transposed view, for S, d, N) or
    # as every other sample of a longer array
    raw = raw.copy()
    rows = raw.reshape(-1, raw.shape[-1])
    for row, sample, whole in nans:
        rows[row % len(rows), slice(None) if whole else sample % rows.shape[1]] = np.nan
    if layout == "F":
        raw = np.asfortranarray(raw)
    elif layout == "strided":
        raw = np.repeat(raw, 2, axis=-1)[..., ::2]
    with np.errstate(invalid="ignore"):  # the winding of a NaN row is cast to int
        got, got_winding = _unwrap_periodic(raw)
        want, want_winding = unwrap_periodic(raw)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(got_winding, want_winding)


def test_chart_out_of_tube_flagged():
    _, spec = preset("GP_SCALAR")
    state = np.array([[0.2 + 0.0j]])  # amplitude far below the chart tube
    _, _, in_chart = chart_extract(spec, state, 0.1)
    assert not in_chart


def test_chart_phase_reference_selects_branch():
    _, spec = preset("GP_SCALAR")
    eps = 0.1
    target = (2.0 * np.pi - 0.1) / eps  # same circle point as phi = -1.0
    state = chart_assemble(spec, np.array([[target]]), np.zeros((1, 1)), eps)
    phi_plain, _, _ = chart_extract(spec, state, eps)
    assert abs(phi_plain[0, 0] + 1.0) <= 1e-12  # principal branch
    ref = np.full((1, 1), target)
    phi_ref, _, _ = chart_extract(spec, state, eps, phase_ref=ref)
    assert abs(phi_ref[0, 0] - target) <= 1e-9


def test_chart_radius_values():
    assert chart_radius(preset("GP_SCALAR")[1]) == np.pi
    assert chart_radius(preset("LL_EASY_PLANE")[1]) == np.pi
    theta0 = 0.6
    assert abs(chart_radius(preset("LL_EASY_CONE", {"alpha": 1.0, "theta0": theta0})[1]) - np.pi * np.sin(theta0)) <= 1e-15
    assert abs(chart_radius(preset("AF_CHAIN")[1]) - np.pi * np.sqrt(2.0)) <= 1e-15


def test_normal_coupling_signs():
    signs = {kind: normal_coupling(preset(kind, params)[1]) for kind, params in (
        ("GP_SCALAR", None), ("GP_COUPLED", None), ("LL_EASY_PLANE", None),
        ("LL_EASY_CONE", {"alpha": 1.0, "theta0": 1.0}), ("AF_CHAIN", None))}
    assert signs == {"GP_SCALAR": -1.0, "GP_COUPLED": -1.0, "LL_EASY_PLANE": 1.0,
                     "LL_EASY_CONE": 1.0, "AF_CHAIN": -1.0}
    assert all(type(s) is float for s in signs.values())


def test_dphi_matrix_af_jacobi_factor():
    eps, a = 0.5, 2.0
    phi = np.array([[a], [0.0]])
    J = dphi_matrix(phi, eps)
    r = eps * a / np.sqrt(2.0)
    assert abs(J[0, 0, 0] - 1.0) <= 1e-15
    assert abs(J[1, 1, 0] - np.sin(r) / r) <= 1e-15
    assert abs(J[0, 1, 0]) <= 1e-15 and abs(J[1, 0, 0]) <= 1e-15
    # finite-difference cross-check through the assembled map on the sphere
    h = 1e-6
    _, spec_af = preset("AF_CHAIN")
    n0 = np.zeros((2, 1))
    base = chart_assemble(spec_af, phi, n0, eps)[:3]
    for inc, col in [(np.array([[h], [0.0]]), 0), (np.array([[0.0], [h]]), 1)]:
        stepped = chart_assemble(spec_af, phi + inc, n0, eps)[:3]
        speed = np.linalg.norm((stepped - base) / h) * np.sqrt(2.0) / eps
        expected = np.linalg.norm(J[:, col, 0])
        assert abs(speed - expected) <= 1e-4
