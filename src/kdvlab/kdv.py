"""The vector KdV system: nonlinearity tensor algebra, evolution, conserved
quantities, and hyperbolic (zero-dispersion) diagnostics.

Every model is in canonical form:   du/dt = delta*dxxx(u) - dx Q(u,u)
with Q a fully symmetric bilinear map encoded by a (d,d,d) coefficient tensor.
A limit model (:func:`~kdvlab.models.limit_equation`) also has the affine
change of variables u(tau, x) = s*A(8c*tau, x) to the profile A of the
microscopic run, and :func:`evolve_kdv` applies it: it takes and returns A,
in A's time, and integrates u.
"""

from __future__ import annotations

import numpy as np

from .grid import (
    Dealias,
    Grid,
    Trajectory,
    _irfft,
    _rfft,
    _run,
    _transform,
    ifrk4_factors,
    ifrk4_step,
    l2_norm,
    step_plan,
)

__all__ = [
    "QTensor",
    "LimitModel",
    "evolve_kdv",
    "conserved_quantities",
]

# A run aborts as a gradient blow-up once max|dx u| exceeds this multiple of
# its initial value: the breakdown time of the dispersionless flow.
BLOWUP_MULTIPLE = 50.0


def symmetrize(coeffs: np.ndarray) -> tuple[np.ndarray, float]:
    """Full (i,j,k)-symmetrization of a rank-3 tensor; returns (sym, defect)."""
    c = np.asarray(coeffs, dtype=float)
    sym = (
        c
        + c.transpose(0, 2, 1)
        + c.transpose(1, 0, 2)
        + c.transpose(1, 2, 0)
        + c.transpose(2, 0, 1)
        + c.transpose(2, 1, 0)
    ) / 6.0
    defect = float(np.max(np.abs(c - sym))) if c.size else 0.0
    return sym, defect


class QTensor:
    """Fully symmetric trilinear coefficients c[i][j][k] = Q(e_i, e_j) . e_k.

    Input coefficients are symmetrized at construction; the symmetry defect of
    the raw input is recorded in ``symmetry_defect``.  Coefficients that are
    not finite, or whose symmetrization overflows, raise ``ValueError``.
    """

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=float)
        if c.ndim != 3 or len(set(c.shape)) != 1:
            raise ValueError(f"coeffs must be (d,d,d), got {c.shape}")
        with np.errstate(over="ignore", invalid="ignore"):  # checked next
            self.coeffs, self.symmetry_defect = symmetrize(c)
        if not np.isfinite(self.coeffs).all():
            raise ValueError("QTensor coefficients must be finite")
        self.dim = c.shape[0]

    @property
    def is_zero(self) -> bool:
        return bool(np.max(np.abs(self.coeffs)) <= 1e-14) if self.coeffs.size else True

    def apply_vectors(self, u, v) -> np.ndarray:
        """Q(u, v) for plain d-vectors."""
        return np.einsum("ijk,i,j->k", self.coeffs, np.asarray(u), np.asarray(v))

    def norm(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def __repr__(self):
        return f"QTensor(dim={self.dim}, max|c|={self.norm():.3g})"


def _pairing(tensor: np.ndarray):
    """(a, b, out=None) -> sum_ij T[i,j,k] a_i b_j on samples (d, M), and a
    scalar for the caller's symbol: a scalar T pairs by one product and is
    that scalar."""
    if tensor.shape == (1, 1, 1):
        return np.multiply, float(tensor[0, 0, 0])
    return lambda a, b, out=None: np.einsum("ijk,im,jm->km", tensor, a, b, out=out), 1.0


def bilinear_apply(tensor: np.ndarray, a: np.ndarray, b: np.ndarray):
    """Dealiased bilinear map of real samples: out_k(x) = sum_ij T[i,j,k] a_i(x) b_j(x)
    (3/2-rule padding)."""
    n, d = a.shape[-1], len(a)
    ws = Dealias(n, 1.5, d, 2)
    np.multiply(_rfft(a), ws.split[:d], out=ws.low[:d])
    np.multiply(_rfft(b), ws.split[d:], out=ws.low[d:])
    p = ws.samples()
    pair, scale = _pairing(tensor)
    prod = pair(p[:d], p[d:])
    return _irfft(ws.fold(scale, 2)[:d] * ws.coeffs(prod), n)


class LimitModel:
    """A vector KdV model in canonical form.

    Parameters
    ----------
    canonical_q : QTensor
        the nonlinearity; the model's ``dim`` is ``canonical_q.dim``.
    dispersion : float
        coefficient of dxxx in du/dt (limit models have 1; hyperbolic runs
        use 0).
    scale : dict, optional
        {"time_factor": 8c, "amplitude": s} with u(tau, x) = s * A(8c*tau, x)
        for a limit model (:func:`~kdvlab.models.limit_equation`); 1 and 1
        otherwise, where A is u.  :func:`evolve_kdv` applies it.
    """

    def __init__(self, canonical_q: QTensor, dispersion: float, scale: dict | None = None):
        self.canonical_q = canonical_q
        self.dim = canonical_q.dim
        self.dispersion = float(dispersion)
        self.scale = dict(scale) if scale else {"time_factor": 1.0, "amplitude": 1.0}

    def __repr__(self):
        return f"LimitModel(dim={self.dim}, dispersion={self.dispersion!r})"


def _check_state(model: LimitModel, u: np.ndarray, grid: Grid):
    if u.shape != (model.dim, grid.n_points):
        raise ValueError(f"the KdV state must be {(model.dim, grid.n_points)}, got {u.shape}")
    if np.iscomplexobj(u):
        raise ValueError("the KdV state must be real")


def _linear_symbol(model: LimitModel, grid: Grid) -> np.ndarray:
    """The Fourier-diagonal linear part delta*dxxx of the right-hand side on
    the rfft half spectrum; with :func:`_nonlinear_rhs` it splits
    du/dt = delta*dxxx(u) - dx Q(u,u) as evolve_kdv integrates it."""
    return model.dispersion * grid.rsymbol(3)


def _zero_rhs(v, out):
    out.fill(0.0)
    return out


def _nonlinear_rhs(model: LimitModel, grid: Grid):
    """The nonlinear part -dx Q(u,u) as a map ``(v, out)`` of (d, n//2+1)
    coefficients in the state convention of :func:`_evolve_ifrk4` to
    coefficients in it, written into ``out`` (and returned); each call pads
    ``v`` itself once (one irfft) and truncates once (one rfft) in a
    :class:`Dealias` workspace kept for the run, with the product in one held
    buffer.  Its symbol is made once, at the (d, n//2+1) shape of the
    coefficients, and the workspace's ``samples`` and ``coeffs`` are bound
    once."""
    Q = model.canonical_q
    if Q.is_zero:
        return _zero_rhs
    d = model.dim
    ws = Dealias(grid.n_points, 1.5, d, odd=True)
    pair, scale = _pairing(Q.coeffs)
    minus_ik = ws.fold(-scale * grid.rsymbol(1), 2) * ws.split
    prod = np.empty((d, ws.m))
    samples, coeffs = ws.samples, ws.coeffs

    def nonlin(v, out):
        up = samples(v)
        return np.multiply(minus_ik, coeffs(pair(up, up, out=prod)), out=out)

    return nonlin


def evolve_kdv(
    model: LimitModel,
    A0: np.ndarray,
    grid: Grid,
    T: float,
    dt: float,
    n_snapshots: int = 65,
    record_gradient: bool = False,
) -> Trajectory:
    """Integrate the model from the real (d, N) profile A0 on ``grid`` over T
    with step dt by integrating-factor RK4 and snapshot A; A0, T and dt are
    in A's units.

    The model's ``scale`` is applied here: the run integrates the canonical
    u = s*A0 over T/f (f the time factor 8c) and stamps its times in A's
    units (:func:`_evolve_ifrk4`).  The stiff dispersion is handled exactly
    by the integrating factor; dt is limited only by the nonlinearity.  The
    run is one :func:`~kdvlab.grid._run` (step plan, snapshot schedule,
    abort bookkeeping), whose per-step monitor aborts it as a gradient
    blow-up (the breakdown, at ``abort_time``) once max|dx u| exceeds
    BLOWUP_MULTIPLE times its initial value.  ``meta["snapshots"]`` holds
    the snapshots of A = u/s as one (S, d, N) array, row 0 A0 itself, and
    ``meta["canonical_snapshots"]`` those of u (the same array at unit
    scale).  A step makes 8 transforms; the guard screens it with a
    spectral bound on max|dx u| and computes the max by a 9th only when that
    bound nears the limit, or on every step with ``record_gradient``, which
    stores the (times, max|dx u|) of every step run in
    ``meta["grad_history"]``; without it there is no ``grad_history``.
    """
    _check_state(model, A0, grid)
    s = model.scale["amplitude"]
    traj = _evolve_ifrk4(_linear_symbol(model, grid), _nonlinear_rhs(model, grid),
                         s * A0, grid, T, dt, n_snapshots, model.scale["time_factor"],
                         record_gradient)
    u = traj.meta["canonical_snapshots"] = traj.meta["snapshots"]
    if s != 1.0:
        traj.meta["snapshots"] = u / s
        traj.meta["snapshots"][0] = A0
    return traj


def _gradient_bound(grid: Grid, d: int):
    """``bound(v)``, an upper bound of max|dx u| over the d rows of u from
    its (d, n//2+1) coefficients v in the state convention of
    :func:`_evolve_ifrk4`: max|dx u| <= sum_k w_k |k| |v_k| / n over the half
    spectrum (w its Hermitian weights), and the sum over the rows is at
    least their max.  |k| is zero at Nyquist, so the halved Nyquist mode
    does not enter.  A call is one abs into a held buffer and one dot."""
    weights = np.tile(grid.half_spectrum[1] * np.abs(grid.rsymbol(1)) / grid.n_points, (d, 1))
    modulus = np.empty(weights.shape)
    return lambda v: np.vdot(weights, np.abs(v, out=modulus))


def _evolve_ifrk4(symbol, nonlin, u0: np.ndarray, grid: Grid, T, dt, n_snapshots, time_factor,
                  record_gradient=False):
    """The IF-RK4 run of :func:`evolve_kdv` for any Fourier-diagonal linear
    ``symbol`` (rfft half spectrum) and ``nonlin(v, out)`` on coefficients in
    the state convention below, from u0.  T and dt are in the units of a
    time f = ``time_factor`` times the integrated one: the run takes the
    steps of ``step_plan(T, dt)``, each ``step_plan(T/f, step/f)[1]`` long in
    the integrated time (a plain step/f can move the IF-RK4 factors by an
    ulp), and stamps the times, ``abort_time`` and ``grad_history`` with the
    step of T.  The state is carried as coefficients and goes to physical space only
    for the gradient guard and the snapshots, a block at a time: a step
    makes 8 transforms in the stepper, and a 9th for max|dx u| only when the
    guard's bound (:func:`_gradient_bound`) nears the blow-up limit, or on
    every step with ``record_gradient`` (``grad_history``).

    The state convention: every IF-RK4 state is ``_rfft(u) * split`` (the
    Nyquist mode of even n halved), the padded form a :class:`Dealias`
    workspace takes and gives, so a stage pads its state as it is.  It is
    converted on entry and per snapshot block on exit (``block / split``);
    the gradient guard needs no conversion, as ik is zero at Nyquist.  Each
    operation on the state is the one on the plain spectrum, scaled by 0.5
    at the Nyquist mode, and a power of two commutes with rounding, so the
    run keeps the plain spectrum's bits."""
    steps, step = step_plan(T, dt)
    n = grid.n_points
    split = Dealias.nyquist_split(n, len(u0))
    v0 = _rfft(u0) * split
    # the factors and ik at the coefficients' (d, n//2+1) shape: a broadcast
    # (n//2+1,) operand would send every multiply through a buffered loop
    factors = ifrk4_factors(np.tile(symbol, (len(v0), 1)),
                            step_plan(T / time_factor, step / time_factor)[1])
    ik = np.tile(grid.rsymbol(1), (len(v0), 1))
    dcoef, grad = np.empty_like(v0), np.empty(u0.shape)
    irfft, irfft_scale = _transform("irfft", n)
    grad_times, grad_vals = [0.0], [float(np.max(np.abs(grid.diff(u0))))]
    grad_limit = BLOWUP_MULTIPLE * max(grad_vals[0], 1e-12)
    stages = tuple(np.empty((6,) + v0.shape, complex))  # views made once
    v = v0

    def advance():  # the batch of one run, as the 1-tuple of its state
        nonlocal v
        v = ifrk4_step(v, nonlin, factors, stages)
        return (v,)

    def max_gradient(state):
        np.multiply(ik, state[0], out=dcoef)
        irfft(dcoef, irfft_scale, grad)
        return float(np.maximum.reduce(np.abs(grad, out=grad), axis=None))

    def recorded_guard(k, state):
        grad_vals.append(max_gradient(state))
        grad_times.append(k * step)
        return "gradient blow-up" if grad_vals[-1] > grad_limit else None

    # the margin covers rounding: the bound's sum of m = d*(n//2+1) positive
    # terms is off by at most a relative m*2**-53 (7e-13 at d = 3, n = 4096),
    # the exact max by a few log2(n) ulps of the bound, so a step the screen
    # passes is one the exact guard passes; a NaN or inf bound fails <= and
    # takes the exact path
    bound, screen = _gradient_bound(grid, len(v0)), grad_limit * (1.0 - 1e-9)

    def screened_guard(k, state):
        if bound(state[0]) <= screen:
            return None
        return "gradient blow-up" if max_gradient(state) > grad_limit else None

    blocks = []
    [traj] = _run([(steps, step, n_snapshots,
                    lambda times, block: blocks.append(_irfft(block / split, n)))],
                  v0[None], advance, monitor=recorded_guard if record_gradient else screened_guard)
    snapshots = np.concatenate(blocks)
    snapshots[0] = u0  # the initial data, not their transform round trip
    traj.meta["snapshots"] = snapshots
    if record_gradient:
        traj.meta["grad_history"] = (np.array(grad_times), np.array(grad_vals))
    return traj


def conserved_quantities(model: LimitModel, u: np.ndarray, grid: Grid):
    """(H, M, P) of the real (d, N) samples u on ``grid`` for a model.

    H = int [ (1/2)|dx u|^2 + (1/3) Q(u,u).u ] dx, M = int |u|^2 dx,
    P = int u dx (one entry per component).  Quadratic integrals are evaluated
    by Parseval, the cubic one on a doubled (alias-free) grid.
    """
    _check_state(model, u, grid)
    h = 0.5 * l2_norm(grid.diff(u), grid) ** 2
    Q = model.canonical_q
    if not Q.is_zero:
        ws = Dealias(grid.n_points, 2, model.dim)
        np.multiply(_rfft(u), ws.split, out=ws.low)
        up = ws.samples()
        cubic = np.einsum("ijk,im,jm,km->m", Q.coeffs, up, up, up)
        h += float(np.sum(cubic)) * 8.0 * (grid.length / ws.m) / 3.0  # 8 = (m/n)**3
    mass = l2_norm(u, grid) ** 2
    momentum = np.sum(u, axis=-1) * grid.spacing
    return float(h), float(mass), momentum

