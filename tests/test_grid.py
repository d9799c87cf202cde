"""Tests for the spectral grid layer: transforms, derivatives, norms,
steppers, padding."""

import ast
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kdvlab import grid as grid_module
from kdvlab.analysis import _mkdv_nonlinear, miura_crosscheck
from kdvlab.grid import (
    SNAPSHOT_BLOCK,
    Dealias,
    Grid,
    _hs_norms,
    _irfft,
    _rfft,
    _run,
    _transform,
    fourier_shift,
    ifrk4_factors,
    ifrk4_step,
    integrate,
    l2_norm,
    rk4_factors,
    rk4_step,
)
from kdvlab.kdv import (LimitModel, QTensor, _linear_symbol, _nonlinear_rhs, _pairing, bilinear_apply,
                        evolve_kdv)
from kdvlab.micro import evolve_micro, well_prepared_init
from kdvlab.models import limit_equation, preset
from oracles import (
    advance_linear,
    canonical_nonlinear,
    derivative,
    mkdv_nonlinear,
    pad_to,
    truncate_to,
)
from oracles import ifrk4_step as oracle_ifrk4_step


@pytest.fixture
def grid():
    return Grid(64, 2 * np.pi)


# ---------------------------------------------------------------------------
# the transform layer
# ---------------------------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(8, 800),
    lead=st.sampled_from([(), (3,), (2, 1, 3)]),
    view=st.sampled_from(["contiguous", "strided", "reversed"]),
)
def test_transforms_match_numpy_fft_bitwise_property(seed, n, lead, view):
    # the gufunc path (or the fallback) returns numpy.fft's exact bits, for
    # contiguous input and strided or negative-stride views
    rng = np.random.default_rng(seed)

    def sample(m, complex_):
        base = rng.normal(size=lead + (2 * m,))
        if complex_:
            base = base + 1j * rng.normal(size=base.shape)
        if view == "strided":
            return base[..., ::2]
        return base[..., :m].copy() if view == "contiguous" else base[..., :m][::-1]

    real, comp, half = sample(n, False), sample(n, True), sample(n // 2 + 1, True)
    assert np.array_equal(_rfft(real), np.fft.rfft(real))
    assert np.array_equal(_irfft(half, n), np.fft.irfft(half, n))
    for kind, a in (("fft", comp), ("fft", real), ("ifft", comp)):
        fn, scale = _transform(kind, n)
        want = getattr(np.fft, kind)(a)
        assert np.array_equal(fn(a, scale, np.empty_like(want)), want), kind


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.0.0",
                    reason="the pocketfft gufuncs are public from numpy 2.0")
def test_gufunc_transforms_are_bound_on_numpy_2():
    # a numpy release that moves the private gufunc module must fail here
    # rather than send every transform through the slower numpy.fft wrapper
    assert grid_module._POCKETFFT is not None


def test_numpy_fft_fallback_gives_identical_runs(monkeypatch):
    grid = Grid(64, 8 * np.pi)
    A0 = 0.3 * np.stack([np.sin(grid.x / 4), np.cos(grid.x / 2)])

    def runs():
        # every micro family, so every spin right-hand side and both split
        # steps run on both layers, with the out= path of all four transforms
        out = []
        for kind, params in (("GP_SCALAR", None), ("GP_COUPLED", None), ("LL_EASY_PLANE", None),
                             ("LL_EASY_CONE", {"alpha": 1.0, "theta0": 1.0}), ("AF_CHAIN", None)):
            geom, spec = preset(kind, params)
            s0 = well_prepared_init(spec, A0[:geom.dim], grid, 0.2)
            out.append(s0.values)
            evolve_micro(spec, s0, 5e-4, 1e-4, n_snapshots=6,
                         consume=lambda times, block: out.append(block.copy()))
        # the short-input irfft of both nonlinear forms: canonical (d = 2
        # and d = 1) and, through the Miura square, the mKdV one
        traj = evolve_kdv(limit_equation(preset("GP_COUPLED")[0]), A0, grid, 5e-3, 1e-3,
                          n_snapshots=6)
        out += list(traj.meta["snapshots"])
        v0 = A0[:1]
        traj = evolve_kdv(LimitModel(QTensor([[[0.7]]]), 1.0), v0, grid, 5e-3,
                          1e-3, n_snapshots=6)
        discrepancy, aborted = miura_crosscheck(QTensor([[[0.7]]]), v0, grid, 5e-3, 1e-3,
                                                n_snapshots=6)
        assert not aborted
        return out + list(traj.meta["snapshots"]) + [discrepancy]

    bound = runs()
    monkeypatch.setattr(grid_module, "_POCKETFFT", None)
    fallback = runs()
    assert len(bound) == len(fallback)
    assert all(np.array_equal(a, b) for a, b in zip(bound, fallback))


def test_numpy_fft_is_called_only_by_the_transform_layer():
    # one transform layer: outside grid's _transform (the fallback) the only
    # numpy.fft transform call is the exact Airy reference of the kdv
    # experiment
    src = Path(grid_module.__file__).parent
    allowed = {("grid", "_transform"), ("experiments", "_run_kdv")}
    found = set()
    for path in sorted(src.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute) and node.attr in ("fft", "ifft", "rfft", "irfft")
                        and isinstance(node.value, ast.Attribute) and node.value.attr == "fft"):
                    found.add((path.stem, getattr(top, "name", "<module>")))
    assert found == allowed


def _full_spectrum_uses(tree):
    """The top-level scope of every ``_transform`` call whose kind is not a
    literal "rfft" or "irfft", and of every definition, import or attribute
    named ``_fft`` or ``_ifft``."""
    for top in tree.body:
        scope = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_transform":
                kind = node.args[0] if node.args else None
                if not (isinstance(kind, ast.Constant) and kind.value in ("rfft", "irfft")):
                    yield scope
            # a def or an imported alias (name), an attribute (attr), a name (id)
            if {getattr(node, a, None) for a in ("name", "attr", "id")} & {"_fft", "_ifft"}:
                yield scope


def test_full_spectrum_transforms_serve_complex_fields_only():
    # real samples use the rfft half spectrum: the full complex transforms
    # are bound only by the condensate split step, and no module defines or
    # imports an allocating full-spectrum wrapper
    src = Path(grid_module.__file__).parent
    found = {(path.stem, scope) for path in sorted(src.glob("*.py"))
             for scope in _full_spectrum_uses(ast.parse(path.read_text()))}
    assert found == {("micro", "_make_stepper")}
    code = ("from .grid import _fft\n"
            "def _ifft(a):\n    return a\n"
            "def f(kind):\n    return _transform(kind, 8), _transform('rfft', 8)\n"
            "def g():\n    return grid._fft(a)\n")
    assert list(_full_spectrum_uses(ast.parse(code))) == ["<module>", "_ifft", "f", "g"]


def _pocketfft_none_tests(tree):
    """The top-level scope ("<module>" or a function or class name) of
    every comparison of ``_POCKETFFT`` with None, in source order."""
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                if (any(isinstance(o, ast.Name) and o.id == "_POCKETFFT" for o in operands)
                        and any(isinstance(o, ast.Constant) and o.value is None for o in operands)):
                    found.append(getattr(top, "name", "<module>"))
    return found


def test_the_numpy_fft_fallback_is_chosen_in_one_function():
    # the numpy.fft fork is written once: _transform is the one function
    # that tests _POCKETFFT against None (the import guard may), and every
    # transform, the allocating wrappers included, is one of its bindings
    scopes = _pocketfft_none_tests(ast.parse(Path(grid_module.__file__).read_text()))
    assert [s for s in scopes if s != "<module>"] == ["_transform"]


def test_the_fork_checker_flags_a_second_comparison():
    code = ("if _POCKETFFT is None:\n    pass\n"
            "def _transform(kind, n):\n    if _POCKETFFT is None:\n        pass\n"
            "def _rfft(a):\n    if None is not _POCKETFFT:\n        pass\n"
            "def _fft(a):\n    return _POCKETFFT.fft\n")
    assert _pocketfft_none_tests(ast.parse(code)) == ["<module>", "_transform", "_rfft"]


# the transform layer's state: the gufunc module and the scales it is called with
_LAYER_STATE = frozenset({"_POCKETFFT", "_FORWARD_SCALE", "_INVERSE_SCALE"})


def _layer_state_references(tree):
    """Line numbers of every name, attribute or import of _LAYER_STATE."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in _LAYER_STATE:
            yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr in _LAYER_STATE:
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and any(a.name in _LAYER_STATE for a in node.names):
            yield node.lineno


def test_the_checker_flags_a_module_binding_the_gufuncs_itself():
    # as a step kernel that bound _POCKETFFT.fft itself would, by import or
    # through the module
    code = ("from .grid import _POCKETFFT, _transform\n"
            "fft = _POCKETFFT.fft\n"
            "scale = grid._INVERSE_SCALE[n]\n"
            "fn, scale = _transform('fft', n)\n")
    assert list(_layer_state_references(ast.parse(code))) == [1, 2, 3]


def test_only_the_transform_layer_touches_its_gufuncs_and_scales():
    # one way into the transforms: every other module goes through _rfft,
    # _irfft or _transform, so swapping grid._POCKETFFT (the
    # numpy.fft fallback, the fft_calls fixture) reaches every transform
    src = Path(grid_module.__file__).parent
    found = [f"{path.name}:{line}" for path in sorted(src.glob("*.py")) if path.stem != "grid"
             for line in _layer_state_references(ast.parse(path.read_text()))]
    assert not found, f"transform-layer state referenced outside grid: {found}"


@pytest.mark.parametrize("fallback", [False, True])
@pytest.mark.parametrize("n", [12, 15])
def test_bound_transforms_write_the_wrappers_bits_into_out(monkeypatch, fallback, n):
    # _transform(kind, n), which the wrappers call, gives numpy.fft's bits,
    # written into the caller's buffer and returned, on the gufuncs and on
    # the numpy.fft fallback; the irfft zero-pads a short input, with the
    # bits of the zero-tailed half spectrum
    if fallback:
        monkeypatch.setattr(grid_module, "_POCKETFFT", None)
    rng = np.random.default_rng(n)
    real = rng.normal(size=(2, 3, n))
    comp = real + 1j * rng.normal(size=real.shape)
    half, short = comp[..., : n // 2 + 1], comp[..., :4]
    tailed = np.zeros_like(half)
    tailed[..., :4] = short
    cases = [("rfft", real, np.fft.rfft(real)), ("irfft", half, np.fft.irfft(half, n)),
             ("irfft", short, np.fft.irfft(tailed, n)), ("fft", comp, np.fft.fft(comp)),
             ("ifft", comp, np.fft.ifft(comp))]
    for kind, a, want in cases:
        fn, scale = _transform(kind, n)
        out = np.empty_like(want)
        assert fn(a, scale, out) is out
        assert out.tobytes() == want.tobytes(), kind


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(4, 2 * np.pi)
    with pytest.raises(ValueError):
        Grid(64, -1.0)
    g = Grid(64, 2 * np.pi)
    # wavenumbers antisymmetric about 0 (Nyquist aside)
    k = g.wavenumbers
    assert abs(k[1] + k[-1]) < 1e-15
    assert abs(k[1] - 1.0) < 1e-15


@pytest.mark.parametrize("k", [1, 2, 3])
def test_third_derivative_of_sine(grid, k):
    # dx^3 sin(kx) = -k^3 cos(kx)
    out = derivative(np.sin(k * grid.x)[None, :], grid, 3)
    expected = -(k**3) * np.cos(k * grid.x)
    assert np.max(np.abs(out[0] - expected)) < 1e-10 * max(1, k**3)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_derivative_of_constant_is_zero(grid, order):
    out = derivative(2.5 * np.ones((1, grid.n_points)), grid, order)
    assert np.max(np.abs(out)) < 1e-13


def test_complex_first_derivative(grid):
    out = derivative(np.exp(2j * grid.x)[None, :], grid, 1)
    expected = 2j * np.exp(2j * grid.x)
    assert np.max(np.abs(out[0] - expected)) < 1e-12


def test_hs_seminorms_zero(grid):
    f = np.zeros((1, grid.n_points))
    assert _hs_norms(f, grid, 3).tolist() == [0.0, 0.0, 0.0, 0.0]


def test_hs_seminorms_sine(grid):
    norms = _hs_norms(np.sin(grid.x)[None, :], grid, 1)
    root_pi = np.sqrt(np.pi)
    assert abs(norms[0] - root_pi) < 1e-12
    assert abs(norms[1] - root_pi) < 1e-12


def test_hs_seminorms_sine_2x(grid):
    # ||sin 2x|| = sqrt(pi), each derivative multiplies by 2
    norms = _hs_norms(np.sin(2 * grid.x)[None, :], grid, 2)
    root_pi = np.sqrt(np.pi)
    for j, val in enumerate(norms):
        assert abs(val - 2**j * root_pi) < 1e-12


def test_hs_norms_make_one_spectrum_with_the_broadcast_bits():
    # a real (32, 1, 256) snapshot block, as the energy proxy of a converge
    # block sees it: the half spectrum, its real power array and one scratch
    # of that shape stay under three half spectra, with the bits of the
    # broadcast form of Parseval on the half spectrum, L sum w_k |k|^2j |c_k|^2
    # with the Hermitian weights w_k
    g = Grid(256, 8 * np.pi)
    block = np.random.default_rng(3).normal(size=(32, 1, 256))
    spectrum = np.fft.rfft(block)
    power = (np.abs(spectrum) / g.n_points) ** 2
    _, weights = g.half_spectrum
    want = np.stack([np.sqrt(g.length * np.sum(weights * np.abs(g.rsymbol(j)) ** 2 * power,
                                                axis=(-2, -1))) for j in range(3)], axis=-1)
    _hs_norms(block, g, 2)
    tracemalloc.start()
    try:
        got = _hs_norms(block, g, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * spectrum.nbytes
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_parseval_matches_physical_quadrature(grid):
    rng = np.random.default_rng(7)
    spec = np.zeros(grid.n_points, dtype=complex)
    modes = rng.integers(1, 10, size=5)
    for m in modes:
        amp = rng.normal() + 1j * rng.normal()
        spec[m] = amp
        spec[-m] = np.conj(amp)
    spec[grid.n_points // 2] = rng.normal()  # the Nyquist mode counts once
    f = np.fft.ifft(spec).real[None, :] * grid.n_points
    phys = l2_norm(f, grid)
    spectral = _hs_norms(f, grid, 0)[0]
    assert abs(phys - spectral) < 1e-12 * max(1.0, phys)


def test_advance_linear_airy_phase(grid):
    c = 1.0
    k0 = 3
    f = np.exp(1j * k0 * grid.x)
    dt = 0.37
    out = advance_linear(f, -1j * grid.wavenumbers**3 / (8 * c), dt)
    expected = np.exp(1j * k0 * grid.x) * np.exp(-1j * k0**3 * dt / (8 * c))
    assert np.max(np.abs(out - expected)) < 1e-12


def test_advance_linear_identity(grid):
    f = np.sin(grid.x) + 0.3 * np.cos(5 * grid.x)
    out = advance_linear(f, np.zeros(grid.n_points), 0.7)
    assert np.max(np.abs(out - f)) < 1e-14


def test_advance_linear_heat_kernel(grid):
    out = advance_linear(np.sin(grid.x), grid.symbol(2), 0.1)
    expected = np.exp(-0.1) * np.sin(grid.x)
    assert np.max(np.abs(out - expected)) < 1e-12


def test_advance_linear_overflow_rejected(grid):
    with pytest.raises(OverflowError):
        advance_linear(np.sin(grid.x), -grid.symbol(2), 10.0)


def test_real_fields_stay_real(grid):
    rng = np.random.default_rng(11)
    f = rng.normal(size=grid.n_points)
    assert not np.iscomplexobj(grid.diff(f))
    assert not np.iscomplexobj(derivative(f, grid, 3))
    assert not np.iscomplexobj(advance_linear(f, grid.symbol(3), 0.1))


def test_derivative_commutes_with_advance(grid):
    rng = np.random.default_rng(3)
    spec = np.zeros(grid.n_points, dtype=complex)
    for m in range(1, 12):
        amp = rng.normal() + 1j * rng.normal()
        spec[m] = amp
        spec[-m] = np.conj(amp)
    f = np.fft.ifft(spec).real * grid.n_points
    sym = grid.symbol(3) / 8
    a = grid.diff(advance_linear(f, sym, 0.2))
    b = advance_linear(grid.diff(f), sym, 0.2)
    assert np.max(np.abs(a - b)) < 1e-12


def _rk4(state, rhs, dt, stages=None):
    """One rk4_step on fresh factors (and fresh stage buffers if none given)."""
    if stages is None:
        stages = np.empty((5,) + state.shape)
    return rk4_step(state, rhs, rk4_factors(dt), stages)


def test_rk4_factors_are_0d_float64():
    factors = rk4_factors(0.3)
    assert all(f.shape == () and f.dtype == np.float64 for f in factors)
    assert [float(f) for f in factors] == [0.5 * 0.3, 0.3, 2.0, 0.3 / 6.0]


def test_rk4_zero_rhs(grid):
    f = np.sin(grid.x)
    out = _rk4(f, lambda v, out: np.multiply(v, 0.0, out=out), 0.1)
    assert np.max(np.abs(out - f)) < 1e-15


def test_rk4_exponential():
    u = np.array([1.0])
    out = _rk4(u, lambda v, out: np.multiply(v, 1.0, out=out), 0.1)
    assert abs(out[0] - np.exp(0.1)) < 1e-7


def test_rk4_order():
    # fourth order: error at fixed horizon drops ~16x when dt halves; the
    # coarse run reuses one stage array across steps, as the spin stepper does
    rhs = lambda u, out: np.sin(u, out=out)
    u0 = np.array([0.7])
    T = 1.0

    def error_at_horizon(steps):
        ref = u0.copy()
        for _ in range(steps * 64):
            ref = _rk4(ref, rhs, T / (steps * 64))
        u, stages = u0.copy(), np.empty((5,) + u0.shape)
        for _ in range(steps):
            u = _rk4(u, rhs, T / steps, stages)
        return abs(u[0] - ref[0])

    e1 = error_at_horizon(8)
    e2 = error_at_horizon(16)
    assert 12 < e1 / e2 < 22


def test_ifrk4_linear_only_matches_advance(grid):
    f = np.sin(grid.x) + 0.2 * np.cos(3 * grid.x)
    factors = ifrk4_factors(grid.rsymbol(3), 0.05)
    v = np.fft.rfft(f)
    stepped = ifrk4_step(v, lambda v, out: np.multiply(v, 0.0, out=out), factors,
                         np.empty((6,) + v.shape, complex))
    exact = advance_linear(f, grid.symbol(3), 0.05)
    assert np.max(np.abs(np.fft.irfft(stepped, grid.n_points) - exact)) < 1e-12


def test_ifrk4_order(grid):
    # Burgers-type nonlinearity with stiff dispersion: 4th order in dt
    n = grid.n_points
    ik = grid.rsymbol(1)

    def nonlin(v, out):
        u, du = np.fft.irfft(v, n), np.fft.irfft(ik * v, n)
        out[...] = -np.fft.rfft(bilinear_apply(np.ones((1, 1, 1)), u, du))
        return out

    f = np.fft.rfft(0.5 * np.sin(grid.x))[None]

    def solve(dt, steps):
        factors = ifrk4_factors(grid.rsymbol(3), dt)
        v, stages = f, np.empty((6,) + f.shape, complex)
        for _ in range(steps):
            v = ifrk4_step(v, nonlin, factors, stages)
        return np.fft.irfft(v, n)

    ref = solve(1e-4, 400)
    e1 = np.max(np.abs(solve(4e-3, 10) - ref))
    e2 = np.max(np.abs(solve(2e-3, 20) - ref))
    assert e1 / e2 > 10


# -- the run loop ---------------------------------------------------------------


@pytest.mark.parametrize("hook,kept", [
    ("stepper", 45),  # FloatingPointError on step 45: snapshots of steps 0..44
    ("check", 45),  # the snapshot check of step 45 fails: the same
    ("monitor", 46),  # the monitor stops step 45 and keeps its state: steps 0..45
])
def test_run_aborts_on_the_exact_step(hook, kept):
    # a toy stepper whose state after step s is (s, s), snapshotted on every
    # step, aborted on step k = 45 inside the second block
    k, dt, reason = 45, 0.01, "stopped"

    step = 0

    def advance():  # a batch of one run
        nonlocal step
        step += 1
        if hook == "stepper" and step == k:
            raise FloatingPointError("toy step: non-finite state")
        return np.full((1, 2), float(step))

    hooks = {"monitor": lambda step, state: reason if step == k else None,
             "check": lambda state: reason if state[0] == k else None}
    blocks = []
    [traj] = _run([(100, dt, 101, lambda times, block: blocks.append((times, block.copy())))],
                  np.zeros((1, 2)), advance,
                  **{name: fn for name, fn in hooks.items() if name == hook})
    assert traj.aborted
    assert traj.abort_reason == ("non-finite state" if hook == "stepper" else reason)
    assert traj.meta == {"steps": 100, "steps_taken": k}
    assert traj.abort_time == k * dt
    assert [len(block) for _, block in blocks] == [SNAPSHOT_BLOCK, kept - SNAPSHOT_BLOCK]
    assert np.concatenate([block for _, block in blocks])[:, 0].tolist() == list(range(kept))
    assert traj.times == sum((times for times, _ in blocks), []) == [s * dt for s in range(kept)]


def test_integrate_trapezoid(grid):
    vals = 1.5 + np.sin(grid.x)
    assert abs(integrate(vals, grid) - 1.5 * 2 * np.pi) < 1e-12


def test_pad_truncate_roundtrip(grid):
    rng = np.random.default_rng(5)
    f = rng.normal(size=(2, grid.n_points))
    back = truncate_to(pad_to(np.fft.rfft(f), grid.n_points, 96), grid.n_points)
    assert np.max(np.abs(np.fft.irfft(back, grid.n_points) - f)) < 1e-12


@pytest.mark.parametrize("parity", [0, 1])
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), half_n=st.integers(4, 40), dim=st.integers(1, 3))
def test_dealias_product_matches_pad_truncate_property(parity, seed, half_n, dim):
    # the workspace's product, with its scalings folded into the output
    # symbol, against pad -> pointwise product -> truncate; random real
    # samples populate every mode, the Nyquist mode of even n included
    n = 2 * half_n + parity
    rng = np.random.default_rng(seed)
    a, b = rng.normal(size=(2, dim, n))
    a_hat, b_hat = np.fft.rfft(a), np.fft.rfft(b)
    if parity == 0:
        assert np.min(np.abs(a_hat[:, n // 2])) > 0.0
    tensor = rng.normal(size=(dim, dim, dim))
    ws = Dealias(n, 1.5, dim, 2)
    np.multiply(a_hat, ws.split[:dim], out=ws.low[:dim])
    np.multiply(b_hat, ws.split[dim:], out=ws.low[dim:])
    p = ws.samples()
    pair, scale = _pairing(tensor)
    got = ws.fold(scale, 2)[:dim] * ws.coeffs(pair(p[:dim], p[dim:]))
    padded = np.einsum("ijk,im,jm->km", tensor, pad_to(a_hat, n, ws.m), pad_to(b_hat, n, ws.m))
    want = truncate_to(padded, n)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    direct = bilinear_apply(tensor, a, b)
    assert np.max(np.abs(direct - np.fft.irfft(want, n))) <= 1e-13 * np.max(np.abs(direct))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 96), rows=st.integers(1, 4),
       factor=st.sampled_from([1.5, 2.0]))
def test_dealias_samples_zero_pad_bitwise_property(seed, n, rows, factor):
    # the irfft of the short (rows, n//2+1) input equals numpy.fft.irfft of
    # the zero-tailed padded half spectrum bit for bit, for even and odd n
    rng = np.random.default_rng(seed)
    ws = Dealias(n, factor, rows)
    ws.low[...] = rng.normal(size=ws.low.shape) + 1j * rng.normal(size=ws.low.shape)
    padded = np.zeros((rows, ws.m // 2 + 1), complex)
    padded[:, : n // 2 + 1] = ws.low
    got = ws.samples()
    assert got is ws.padded and got.shape == (rows, ws.m)
    assert np.array_equal(got, np.fft.irfft(padded, ws.m))
    # given coefficients are padded as they are, with the same bits
    given = ws.low.copy()
    ws.low.fill(np.nan)
    assert ws.samples(given) is ws.padded and np.array_equal(ws.padded, got)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(8, 96), d=st.integers(1, 3),
       fields=st.integers(1, 2), factor=st.sampled_from([1.5, 2.0]), odd=st.booleans())
def test_dealias_coeffs_truncate_bitwise_property(seed, n, d, fields, factor, odd):
    # the one truncation: the rfft of a (d, m) product cut to n//2+1 modes,
    # with the Nyquist imaginary part of even n zeroed unless the workspace
    # is odd, bit for bit, for even and odd n, always into the same
    # contiguous buffer
    rng = np.random.default_rng(seed)
    ws = Dealias(n, factor, d, fields, odd=odd)
    outs = []
    for _ in range(2):
        product = rng.normal(size=(d, ws.m))
        want = np.fft.rfft(product)[:, : n // 2 + 1]
        if n % 2 == 0 and not odd:
            want.imag[:, n // 2] = 0.0
        got = ws.coeffs(product)
        assert got.flags.c_contiguous and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        outs.append(got)
    assert outs[0] is outs[1]


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(16, 64),
    dim=st.integers(1, 2),
    form=st.sampled_from(["canonical", "mkdv"]),
)
def test_ifrk4_step_matches_oracle_step_property(seed, n, dim, form):
    # one step with the per-run factors and the workspace nonlinearities, on
    # the state convention, against the plain IF-RK4 formula with
    # pad/truncate nonlinearities on the rfft coefficients; the step leaves
    # its input alone, returns a fresh array, and keeps no state in its
    # stages: a second step from NaN-filled stages is bit-identical
    rng = np.random.default_rng(seed)
    grid = Grid(n, rng.uniform(2.0, 20.0))
    v = np.fft.rfft(rng.normal(size=(dim, n)) * rng.uniform(0.1, 1.0))
    tensor = rng.normal(size=(dim, dim, dim))
    dt = rng.uniform(1e-4, 1e-2)
    if form == "mkdv":
        Q = QTensor(tensor)
        symbol, nonlin, oracle = grid.rsymbol(3), _mkdv_nonlinear(Q, grid), mkdv_nonlinear(Q, grid)
    else:
        model = LimitModel(QTensor(tensor), rng.uniform(-2, 2))
        oracle = canonical_nonlinear(model.canonical_q, grid)
        symbol, nonlin = _linear_symbol(model, grid), _nonlinear_rhs(model, grid)
    e_half = np.exp(symbol * (dt / 2.0))
    want = oracle_ifrk4_step(v, e_half, oracle, dt, e_half * e_half)
    # the step runs on the state convention, the Nyquist mode halved
    split = Dealias.nyquist_split(n, dim)
    v, want = v * split, want * split
    # the factors at the coefficients' shape, as the run builds them
    v_before, factors = v.copy(), ifrk4_factors(np.tile(symbol, (dim, 1)), dt)
    stages = np.empty((6,) + v.shape, complex)
    got = ifrk4_step(v, nonlin, factors, stages)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.array_equal(v, v_before)
    assert not np.shares_memory(got, v) and not np.shares_memory(got, stages)
    stages.fill(np.nan)
    assert np.array_equal(ifrk4_step(v, nonlin, factors, stages), got)
    out = np.empty_like(v)
    assert nonlin(v, out) is out


def test_symbol_nyquist_rule():
    g = Grid(16, 2 * np.pi)
    nyq = g.n_points // 2
    for order in (1, 3):
        assert g.symbol(order)[nyq] == 0.0
    for order in (2, 4):
        assert g.symbol(order)[nyq] == (1j * g.wavenumbers[nyq]) ** order != 0.0
    assert g.symbol(3) is g.symbol(3)
    assert not g.symbol(3).flags.writeable


def _band_limited(seed: int, n: int, rows: int):
    """Real samples holding every mode but the Nyquist one, plus a Nyquist
    component whose odd derivatives must vanish."""
    rng = np.random.default_rng(seed)
    spec = np.zeros((rows, n), dtype=complex)
    half = n // 2
    spec[:, 1:half] = rng.normal(size=(rows, half - 1)) + 1j * rng.normal(size=(rows, half - 1))
    spec[:, half + 1:] = np.conj(spec[:, 1:half][:, ::-1])
    spec[:, 0] = rng.normal(size=rows)
    spec[:, half] = rng.normal(size=rows)
    return np.fft.ifft(spec, axis=-1).real


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    log_n=st.integers(3, 7),
    rows=st.integers(1, 3),
    order=st.integers(1, 4),
)
def test_diff_real_band_limited_property(seed, log_n, rows, order):
    g = Grid(2**log_n, 2 * np.pi)
    f = _band_limited(seed, g.n_points, rows)
    first = g.diff(f)
    assert first.dtype == np.float64 and first.shape == f.shape
    # batching along the last axis computes each row exactly as alone, with
    # the bits of the general form at order 1
    assert np.array_equal(first, np.stack([g.diff(row) for row in f]))
    assert np.array_equal(first, derivative(f, g, 1))
    # the general form: its complex path agrees with its real path on real input
    real = derivative(f, g, order)
    assert real.dtype == np.float64 and real.shape == f.shape
    cplx = derivative(f.astype(complex), g, order)
    assert cplx.dtype == np.complex128
    scale = max(1.0, float(np.max(np.abs(real))))
    assert np.max(np.abs(cplx.real - real)) <= 1e-12 * scale
    assert np.max(np.abs(cplx.imag)) <= 1e-12 * scale
    nyquist = np.fft.fft(real, axis=-1)[:, g.n_points // 2]
    if order % 2 == 1:
        assert np.max(np.abs(nyquist)) <= 1e-10 * scale * g.n_points


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    half_n=st.integers(4, 40),
    extra=st.integers(0, 40),
    rows=st.integers(1, 3),
)
def test_pad_truncate_inverse_property(seed, half_n, extra, rows):
    n = 2 * half_n
    f = np.random.default_rng(seed).normal(size=(rows, n))
    back = np.fft.irfft(truncate_to(pad_to(np.fft.rfft(f), n, n + extra), n), n)
    assert np.max(np.abs(back - f)) <= 1e-12 * max(1.0, float(np.max(np.abs(f))))


def test_block_diff_multiplies_in_place_with_the_same_bits():
    # a (32, 1, 256) snapshot block: the symbol is made at the spectrum's
    # shape once, and the multiply writes into the spectrum, so a diff
    # allocates the spectrum and its result and no third buffer of that
    # size (a broadcast (N//2+1,) symbol sent it through numpy's buffered
    # loop, 67 kB more).  The bits are those of the broadcast product
    g = Grid(256, 8 * np.pi)
    block = np.random.default_rng(1).normal(size=(32, 1, 256))
    want = _irfft(g.rsymbol(1) * _rfft(block), 256)
    g.diff(block)  # makes the block-shaped symbol
    tracemalloc.start()
    try:
        got = g.diff(block)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    spectrum = 32 * 129 * 16
    assert peak <= spectrum + got.nbytes + 4096
    # in C order: numpy's buffered loop would copy a symbol of another
    # layout through a buffer (freed before the result is made, so the
    # peak above cannot see it)
    assert all(sym.flags.c_contiguous for sym in g._symbols.values())
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_fourier_shift(grid):
    f = np.sin(grid.x)
    shifted = fourier_shift(f, grid, 0.5)
    assert np.max(np.abs(shifted[0] - np.sin(grid.x - 0.5))) < 1e-12
    # the shift is reduced mod L: three turns more move nothing
    assert np.max(np.abs(fourier_shift(f, grid, 0.5 + 3 * grid.length) - shifted)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    log_n=st.integers(3, 7),
    rows=st.integers(1, 3),
    turns=st.floats(-2.0, 2.0),
)
def test_fourier_shift_by_grid_spacings_is_a_roll_property(seed, log_n, rows, turns):
    # the Nyquist rule on real samples: a shift by m spacings multiplies the
    # Nyquist mode, a cosine, by cos(pi m) = (-1)^m, so it is the roll by m
    g = Grid(2**log_n, 2 * np.pi)
    f = _band_limited(seed, g.n_points, rows)
    m = round(turns * g.n_points)
    got = fourier_shift(f, g, m * g.spacing)
    assert got.dtype == np.float64 and got.shape == f.shape
    assert np.max(np.abs(got - np.roll(f, m, axis=-1))) <= 1e-12 * np.max(np.abs(f))
