"""No Python or numpy scalar reaches a ufunc in a step kernel.

numpy converts a Python scalar operand to an array on every ufunc call
(about 0.6 µs on a (1, 257) array, against a 0.85 µs multiply), so the step
kernels take their scalars as 0-d arrays made once per run.  The runs below
step with the ``np`` of ``grid``, ``micro``, ``kdv`` and ``analysis``
replaced by a proxy whose ufuncs, ``.reduce`` included, reject a scalar
operand.  The proxy is in place for the run loop only (``grid._run``: every
step, the per-step monitor and the snapshot check), since the set-up of a
run may convert its scalars once.  In-place operators do not go through the
proxy; the kernels write them with 0-d operands too.  The same proxy, with
scalars allowed and installed before a run is built, counts the ufunc calls
of one IF-RK4 step.
"""

import collections

import numpy as np
import pytest

from kdvlab import analysis, grid, kdv, micro
from kdvlab.grid import Grid
from kdvlab.kdv import LimitModel, QTensor
from kdvlab.micro import dt_max, evolve_micro, well_prepared_init
from kdvlab.models import limit_equation, preset

_SCALARS = (float, int, complex, np.generic)  # bool is an int


class _GuardedUfunc:
    def __init__(self, ufunc, calls, strict=True):
        self._ufunc, self._calls, self._strict = ufunc, calls, strict

    def _check(self, operands):
        self._calls[self._ufunc.__name__] += 1
        for a in operands:
            if self._strict and isinstance(a, _SCALARS):
                raise AssertionError(f"np.{self._ufunc.__name__} got the scalar operand {a!r}")

    def __call__(self, *args, **kwargs):
        self._check(args[: self._ufunc.nin])
        return self._ufunc(*args, **kwargs)

    def reduce(self, array, *args, **kwargs):
        self._check((array, kwargs.get("initial")))
        return self._ufunc.reduce(array, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._ufunc, name)


class _GuardedNumpy:
    """numpy, with each ufunc wrapped in a :class:`_GuardedUfunc` that counts
    its calls in ``calls`` (and, if ``strict``, rejects scalar operands)."""

    def __init__(self, strict=True):
        self.calls, self._strict = collections.Counter(), strict

    def __getattr__(self, name):
        obj = getattr(np, name)
        return _GuardedUfunc(obj, self.calls, self._strict) if isinstance(obj, np.ufunc) else obj


@pytest.fixture
def guarded(monkeypatch):
    """Runs whose loop sees the guarded numpy; returns its call counter."""
    proxy, run = _GuardedNumpy(), grid._run

    def guarded_run(*args, **kwargs):
        with monkeypatch.context() as m:
            for module in (grid, micro, kdv, analysis):
                m.setattr(module, "np", proxy)
            return run(*args, **kwargs)

    for module in (kdv, micro):
        monkeypatch.setattr(module, "_run", guarded_run)
    return proxy.calls


def test_the_proxy_rejects_scalar_operands():
    calls, a = collections.Counter(), np.ones(3)
    proxy = _GuardedUfunc(np.multiply, calls)
    for scalar in (0.5, 2, 1j, np.float64(0.5), True):
        with pytest.raises(AssertionError, match="scalar operand"):
            proxy(a, scalar, out=a)
    with pytest.raises(AssertionError, match="scalar operand"):
        _GuardedUfunc(np.add, calls).reduce(a, initial=0.0)
    assert np.array_equal(proxy(a, np.array(0.5), out=a), np.full(3, 0.5))
    assert _GuardedUfunc(np.add, calls).reduce(a, axis=None) == 1.5


def _bump(g, width):
    rho = 0.3 / np.cosh((g.x - 0.5 * g.length) / width) ** 2
    return rho - rho.mean()


@pytest.mark.parametrize("kind,params", [
    ("GP_SCALAR", None),
    ("GP_COUPLED", {"lam": 1.5, "gamma": 0.2}),
    ("LL_EASY_PLANE", {"k": 2.0}),
    ("LL_EASY_CONE", {"alpha": 0.8, "theta0": 1.1, "beta": 0.2}),
    ("AF_CHAIN", None),
])
def test_micro_steps_pass_no_scalar_to_a_ufunc(guarded, kind, params):
    g, eps = Grid(64, 8 * np.pi), 0.2
    geom, spec = preset(kind, params)
    A0 = np.stack([_bump(g, 1.0 + 0.5 * j) for j in range(geom.dim)])
    s0 = well_prepared_init(spec, A0, g, eps)
    dt = dt_max(spec, eps, g)
    traj = evolve_micro(spec, s0, 6 * dt, dt, n_snapshots=3, consume=lambda times, block: None)
    assert not traj.aborted and traj.meta["steps_taken"] == 6
    assert sum(guarded.values()) >= 6 * 5  # the proxy saw the steps


@pytest.mark.parametrize("form", ["canonical", "gp_coupled", "mkdv"])
def test_ifrk4_steps_pass_no_scalar_to_a_ufunc(guarded, form):
    g = Grid(64, 2 * np.pi)
    if form == "gp_coupled":
        model = limit_equation(preset("gp_coupled")[0])
    else:
        model = LimitModel(QTensor(0.3 * np.ones((2, 2, 2))), 1.0)
    u0 = 0.1 * np.stack([np.sin(g.x), np.cos(g.x)])
    if form == "mkdv":  # the run of the mKdV leg of miura_crosscheck
        traj = kdv._evolve_ifrk4(g.rsymbol(3), analysis._mkdv_nonlinear(model.canonical_q, g),
                                 u0, g, 6e-3, 1e-3, 3, 1)
    else:
        traj = kdv.evolve_kdv(model, u0, g, 6e-3, 1e-3, n_snapshots=3)
    assert not traj.aborted and traj.meta["steps_taken"] == 6
    assert sum(guarded.values()) >= 6 * 5


@pytest.fixture
def counted(monkeypatch):
    """The ufunc calls of whole runs through a counting proxy for the ``np``
    of ``grid`` and ``kdv``, installed before a run is built (as
    ``conftest.fft_calls`` does for transforms), so that what a run binds at
    set-up, such as the scalar pairing's multiply, is counted too."""
    proxy = _GuardedNumpy(strict=False)
    for module in (grid, kdv):
        monkeypatch.setattr(module, "np", proxy)
    return proxy.calls


def test_canonical_ifrk4_step_ufunc_calls(counted):
    # one step of a scalar canonical run, the difference of a 4- and an
    # 8-step run: ifrk4_step makes 8 multiplies and 2 adds (the finiteness
    # sum among them; the in-place operators are not counted), each of its
    # 4 stages the pointwise product and the symbol product, and the
    # gradient guard's screen an absolute value (its dot is no ufunc)
    g = Grid(64, 2 * np.pi)
    model = LimitModel(QTensor([[[1.0]]]), 1.0)
    u0 = 0.1 * np.sin(g.x)[None]
    runs = []
    for steps in (4, 8):
        counted.clear()
        traj = kdv.evolve_kdv(model, u0, g, steps * 1e-3, 1e-3, n_snapshots=2)
        assert not traj.aborted and traj.meta["steps_taken"] == steps
        runs.append(collections.Counter(counted))
    per_step = {name: calls / 4 for name, calls in (runs[1] - runs[0]).items()}
    assert per_step == {"multiply": 16, "add": 2, "absolute": 1}
