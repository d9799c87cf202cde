"""Microscopic condensate and spin-chain integrators in the long-wave variables.

Each model is evolved in the rescaled variables (long-wave spatial scaling,
time t), where the comparison against the limiting third-order dynamics
lives.  Every family steps in the lab frame.  The limit is written in the
frame moving at speed c/eps^2; the right-hand sides commute with
translations, so the moving-frame field at time t is the lab-frame one
translated by -(c/eps^2) t, and ``hydro.limit_error`` translates the limit
instead:

* complex condensates (scalar or two-component) step with a Strang split
  step — the pointwise phase rotation is solved exactly (the moduli are
  invariant under that subflow) and the stiff dispersion part exactly in
  Fourier space;
* sphere-valued spin fields (single chain or staggered antiferromagnet pair)
  step d/dt Γ = Γ × T(Γ) with RK4 and pointwise renormalization after each
  step.

Runs of one family on one grid step in lockstep, as one batch (a
``converge`` steps its eps-runs so): every array of a step carries the runs
along one axis, so one transform and one ufunc call serve all of them.  At
N = 256 a call costs mostly its fixed overhead (a 256-point rfft took 2.3 µs
on one row and 4.8 µs on six), so a batch steps for little more than its
costliest run alone, where runs stepped one after another would each pay
every call.  Every operation acts run by run, and each run's factors are
stacked at the full shape of their operands, so a run in a batch has the
bits of the same run stepped alone; a run leaves the batch when it ends or
aborts, and the others carry their state on.

Both steps run on buffers, transforms (``grid._transform``) and ufuncs
bound once per batch, and hand every ufunc its output positionally, so a
step looks nothing up: the split step holds its bound fft, ifft, cos, sin
and multiply, its spectrum, the linear flow's factor (each run's, at the
state's shape), the rotation factor, the leading-rotated state, and the
angle function ``_phase_factors`` builds, which holds the rotation scale,
the phase-factor buffers and their views, the coupled constants and its
own ufuncs; the spin step holds the RK4 stages and factors, the norms, its
renormalization's ufuncs, and one tuple (``_SpinWork.stage``) of the bound
rfft, irfft, multiply and subtract, symbols, shifted cross-product copies
and their views that each right-hand side unpacks.  A step allocates only
the state it yields.
Every constant a step hands to a ufunc is an array made once: numpy converts
a Python scalar operand on every call, and a broadcast one sends the call
through a buffered loop that allocates.  A spin step is one RK4 step on the
right-hand side bound once per batch, then the renormalization: the squared
norms by one multiply and one ``add.reduce`` over each sphere's rows (no
einsum), one divide, and one ``vdot``, the step's one finiteness check (a
zero-norm point gives 0/0, a non-finite stage a non-finite sum); only when
it fails is each run checked on its own.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import (Grid, Trajectory, _irfft, _NonFinite, _rfft, _run, _transform, integrate,
                   rk4_factors, rk4_step, step_plan)
from .models import (
    _MODULUS_RANGE,
    MicroModelSpec,
    chart_assemble,
    chart_radius,
    normal_coupling,
)

_NORM_TOL = 1e-10
_ROLL = np.array([0, 1, 2, 0, 1])  # a (B, 5, N) cross-product buffer holds rows [x, y, z, x, y]
_ONE = np.array(1.0)  # a 0-d operand: numpy converts a Python float on every ufunc call
_ONE.flags.writeable = False
SPLIT_STEP_RANGE = (0.1, 12.8)  # eps*kmax over which the condensate dt_max was measured


class MicroState:
    """Sampled microscopic field: grid, scaling parameter and raw values.

    ``values`` is (m, N): complex rows u_k for condensates, three real rows
    for a single spin field, six (two stacked spheres) for the staggered pair.
    ``evolve_group`` steps the values of M states stacked as one (M, m, N)
    batch.  Values of the right dtype are wrapped, not copied.
    """

    def __init__(self, spec: MicroModelSpec, grid: Grid, eps: float, values):
        if not 0.0 < eps <= 1.0:
            raise ValueError(f"eps must lie in (0, 1], got {eps}")
        vals = np.asarray(values, dtype=np.complex128 if spec.is_complex else np.float64)
        if vals.shape[-2:] != (spec.n_components, grid.n_points):
            raise ValueError(
                f"values must be (..., {spec.n_components}, {grid.n_points}), got {vals.shape}"
            )
        if not np.isfinite(vals).all():
            raise ValueError("state contains non-finite samples")
        if (violation := _check_pointwise(spec, vals)) is not None:
            raise ValueError(violation)
        self.grid = grid
        self.eps = float(eps)
        self.values = vals


def _check_pointwise(spec, vals):
    """Return None if the pointwise state invariants hold, else a message
    (the comparisons are written so that a NaN sample violates them)."""
    if spec.is_complex:
        mod = np.abs(vals)
        lo, hi = np.minimum.reduce(mod, axis=None), np.maximum.reduce(mod, axis=None)
        if not (_MODULUS_RANGE[0] <= lo and hi <= _MODULUS_RANGE[1]):
            return f"modulus left [{_MODULUS_RANGE[0]}, {_MODULUS_RANGE[1]}]: range ({lo:.3g}, {hi:.3g})"
    else:
        dev = float(np.max(unit_norm_deviation(spec, vals)))
        if not dev <= _NORM_TOL:
            return f"unit-norm deviation {dev:.3g} exceeds {_NORM_TOL}"
    return None


def unit_norm_deviation(spec, vals):
    """Largest pointwise |‖Γ‖ - 1| over the spheres of spin values (..., m, N),
    one per leading index (per snapshot of a block)."""
    blocks = (slice(0, 3), slice(3, 6)) if spec.kind == "AF_CHAIN" else (slice(0, 3),)
    return np.max([np.max(np.abs(np.linalg.norm(vals[..., b, :], axis=-2) - 1.0), axis=-1)
                   for b in blocks], axis=0)


def _phase_factors(spec, out, scale):
    """The angle function of a condensate batch: ``theta(z)`` writes scale
    times the local self-interaction factors g_k of z (force +i g_k u_k /
    eps) into out[0] of a real (2, *z.shape) buffer whose row 1 is scratch,
    and returns it.  The views, the coupled constants lam, 4 gamma and 2
    gamma (0-d arrays) and the ufuncs are bound here, once per batch."""
    (g, t), one = out, _ONE
    absolute, square, subtract, multiply, add = (np.absolute, np.square, np.subtract,
                                                 np.multiply, np.add)
    if spec.kind == "GP_SCALAR":
        def theta(z):
            absolute(z, g)
            square(g, g)
            subtract(one, g, g)  # d_k = 1 - |u_k|^2, the scalar factor
            return multiply(g, scale, g)

        return theta
    lam, gamma = spec.params["lam"], spec.params["gamma"]
    lam, gamma4, gamma2 = np.array(lam), np.array(4.0 * gamma), np.array(2.0 * gamma)
    d1, d2 = g[..., 0, :], g[..., 1, :]
    t1, t2 = t[..., 0, :], t[..., 1, :]

    def theta(z):
        absolute(z, g)
        square(g, g)
        subtract(one, g, g)
        multiply(gamma4, d1, t1)
        multiply(t1, d2, t1)
        multiply(gamma2, d1, t2)
        multiply(t2, d1, t2)
        multiply(g, lam, g)
        add(g, t, g)  # [lam d1 + 4 gamma d1 d2, lam d2 + 2 gamma d1 d1]
        return multiply(g, scale, g)

    return theta


class _SpinWork:
    """Pre-scaled symbols, buffers and views of the spin right-hand side of a
    batch of M runs at eps[0..M-1], on the state as (3, M, N), or (2, 3, M,
    N) for the pair's spheres u, v: the runs sit next to the samples, so the
    rows of each component (and sphere) are one contiguous block.  d/dt Γ =
    Γ × T, with the symbol of the torque.  Chain: T = ∂x² Γ/(2
    eps) - e3 V'(Γ₃)/eps³, easy-plane V' = 2k Γ₃ in the torque symbol,
    easy-cone V' = 2α d - 3β d² pointwise from d = Γ₃ - cos θ0 (no O(α/eps³)
    cancellation on the cone).  Pair: T_u = -∂x² u/(2 eps) - ∂x v/eps² +
    2v/eps³, T_v with +∂x u (``couple``: one product per sphere, since one
    product with the coefficients in reversed sphere order, a negative-stride
    operand, costs more than the call it saves).  Γ and T are copied into
    buffers with the component rows laid out [x, y, z, x, y], whose rows 1:4
    and 2:5 give Γ × T = g_lo t_hi - g_hi t_lo.  Every transform and
    pointwise term writes into a buffer held here, through views made once,
    so a stage allocates nothing.  Each run's symbols, couplings and cone
    constants 3β/eps³ and 2α/eps³ are stacked at the full shape of their
    products, never broadcast: a broadcast operand, or views of the [x, y, z,
    x, y] rows with the runs outside the components, send a ufunc through
    numpy's buffered loop, which allocates.  The cone's cos θ0, the same for
    every run, is a 0-d array, since numpy converts a Python scalar on every
    call.  ``stage`` holds the bound transforms
    (:func:`~kdvlab.grid._transform`), symbols, buffers and views that
    :func:`_rhs_raw` reads, as one tuple."""

    def __init__(self, spec, grid, eps):
        self.blocks = 2 if spec.kind == "AF_CHAIN" else 1
        spheres = (2,) if self.blocks == 2 else ()
        n, ik, ik2 = grid.n_points, grid.rsymbol(1), grid.rsymbol(2)
        self.shape = spheres + (3, len(eps), n)
        syms, pairs = [], []
        for e in eps:
            sym = np.tile((-0.5 if spheres else 0.5) / e * ik2, spheres + (3, 1))
            if spec.kind == "LL_EASY_PLANE":
                sym[2] -= 2.0 * spec.params["k"] / e**3
            syms.append(sym)
            if spheres:  # each sphere's torque takes the other's coefficients
                pair = np.stack([-ik / e**2, ik / e**2])[:, None, :] + 2.0 / e**3
                pairs.append(np.repeat(pair, 3, axis=1))
        sym = np.stack(syms, axis=-2)
        coef, mixed, dcoef = np.empty((3,) + sym.shape, complex)
        couple = cone = None
        if spheres:
            pair = np.stack(pairs, axis=-2)
            couple = (pair[0], coef[1], mixed[0], pair[1], coef[0], mixed[1], mixed)
        elif spec.kind == "LL_EASY_CONE":  # T₃ += d (3β d - 2α) / eps³
            p = spec.params
            dev, term = np.empty((2, len(eps), n))
            cone = (np.array(np.cos(p["theta0"])),
                    np.stack([np.full(n, 3.0 * p["beta"] / e**3) for e in eps]),
                    np.stack([np.full(n, 2.0 * p["alpha"] / e**3) for e in eps]), dev, term)
        torque = np.empty(self.shape)
        g5, t5 = np.empty((2,) + spheres + (5, len(eps), n))
        lo, hi = np.s_[..., 1:4, :, :], np.s_[..., 2:5, :, :]
        self.stage = (*_transform("rfft", n), *_transform("irfft", n), np.multiply, np.subtract,
                      sym, coef, dcoef, couple, cone, torque, torque[..., 2, :, :], g5,
                      g5[..., 2, :, :], t5, g5[lo], g5[hi], t5[lo], t5[hi])


def _rhs_raw(vals, out, work):
    """The spin right-hand side Γ × T(Γ) of a batch, written into ``out``:
    ``vals`` and ``out`` have the shape of ``work``, the :class:`_SpinWork`
    built for the family and each run's eps."""
    (rfft, rfft_scale, irfft, irfft_scale, multiply, subtract, sym, coef, dcoef, couple, cone,
     torque, torque_z, g5, g_z, t5, g_lo, g_hi, t_lo, t_hi) = work.stage
    rfft(vals, rfft_scale, coef)
    multiply(sym, coef, dcoef)
    if couple is not None:
        couple_u, coef_v, mixed_u, couple_v, coef_u, mixed_v, mixed = couple
        multiply(couple_u, coef_v, mixed_u)
        multiply(couple_v, coef_u, mixed_v)
        dcoef += mixed
    irfft(dcoef, irfft_scale, torque)
    vals.take(_ROLL, axis=-3, out=g5, mode="clip")  # "raise" would copy g5 first
    if cone is not None:
        cos0, quad, lin, dev, term = cone
        subtract(g_z, cos0, dev)
        multiply(quad, dev, term)
        term -= lin
        torque_z += multiply(dev, term, term)  # dev (quad dev - lin)
    torque.take(_ROLL, axis=-3, out=t5, mode="clip")
    # torque now lives in t5, so its buffer is the cross product's scratch
    multiply(g_lo, t_hi, out)
    return subtract(out, multiply(g_hi, t_lo, torque), out)


def dt_max(spec: MicroModelSpec, eps: float, grid: Grid) -> float:
    """Largest admissible step for a micro run at this scaling and grid.

    Although both split-step subflows are exact isometries, the composition
    develops high-wavenumber resonance instabilities.  The measured stability
    boundary is a function of eps*kmax alone.  The cap keeps the phase per
    step at the grid cutoff of

        omega(k) = (c*k + k*sqrt(c^2 + eps^2 k^2/4)) / eps^2

    at 0.8*pi; that bound binds for eps*kmax >~ 4, and at 1.6 times the cap
    the split step aborts at eps*kmax = 6.4 and 12.8.  omega is the fastest
    sound wave on the unit background in the frame moving at c/eps^2; the
    lab-frame branch is slower by c*k/eps^2.  The cap is also at most
    0.7*eps^2/(c*kmax), a bound on the transport phase c*kmax*dt/eps^2,
    which the lab-frame step does not have: the term bounds no phase of the
    scheme and is kept only so that the step counts of the condensate runs
    do not move, until the cap is re-measured for a fourth-order
    composition.  2000 steps at the cap (N = 128, L = 8*pi) keep the energy
    to 3.1e-5 relative over eps*kmax in SPLIT_STEP_RANGE = [0.1, 12.8];
    below 0.1 no config is accepted.

    The RK4 spin path must resolve the fastest linear wave, whose frequency
    in the moving frame is bounded by omega = (c+sqrt(lam))*k/eps^2 +
    k^2/(2 eps) over grid wavenumbers, and the cap is 2/omega.  In the lab
    frame the transport part c*k/eps^2 of omega is gone, so the cap is
    conservative; it keeps the moving-frame omega so that the step counts
    of the spin runs stay what they were.
    """
    geom = spec.geometry
    kmax = float(np.max(np.abs(grid.wavenumbers)))
    if spec.is_complex:
        sound = kmax * (geom.c + np.sqrt(geom.c**2 + eps**2 * kmax**2 / 4.0)) / eps**2
        return min(eps**2 / 4.0, 0.8 * np.pi / sound, 0.7 * eps**2 / (geom.c * kmax))
    omega = (geom.c + np.sqrt(geom.lam)) * kmax / eps**2 + kmax**2 / (2.0 * eps)
    return 2.0 / omega


def evolve_micro(spec: MicroModelSpec, s0: MicroState, T: float, dt: float,
                 n_snapshots: int = 11, *, consume) -> Trajectory:
    """Run the microscopic model from s0 to time T in steps of about dt,
    streaming ~n_snapshots states to ``consume(times, block)``: the
    :func:`evolve_group` of one run."""
    return evolve_group(spec, [s0], T, [dt], n_snapshots, consumers=[consume])[0]


def evolve_group(spec: MicroModelSpec, states, T: float, dts, n_snapshots: int = 11, *,
                 consumers) -> list[Trajectory]:
    """Run the microscopic model from each of ``states`` (one family, grids of
    one size, any eps) to time T, run i in steps of about ``dts[i]``,
    streaming its ~n_snapshots states to ``consumers[i]``, with the runs
    stepped in lockstep as one batch; returns their Trajectories.

    The batch is one :func:`~kdvlab.grid._run` (each run's step plan,
    snapshot schedule, blocks to its ``consume(times, block)``, abort
    bookkeeping), with ``block`` the (S, m, N) values of S snapshots, and a
    snapshot check that aborts a run if its pointwise state invariants fail
    (modulus range or unit norm).  A non-finite state never reaches that
    check: both steppers find it by the vdot of the batch state they make,
    on the step that makes it, and the runs it concerns abort there with
    reason "non-finite state".  Every run's step T/steps must not exceed its
    ``dt_max`` (ValueError otherwise, as for T or dt <= 0, or grids of
    different sizes); all are checked before any run steps.  A condensate
    split step makes 2 transforms and one rotation factor (its trailing
    half rotation is the next step's leading one); a spin step is one RK4
    step of 4 right-hand-side evaluations, and ``meta["rhs_evals"]`` counts
    the stages actually run.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    grid, plans = states[0].grid, []
    for s0, dt in zip(states, dts):
        if not dt > 0:
            raise ValueError(f"dt must be positive, got {dt}")
        if (s0.grid.n_points, s0.grid.length) != (grid.n_points, grid.length):
            raise ValueError(f"the runs of a group share one grid size, got {s0.grid} and {grid}")
        steps, dt = step_plan(T, dt)
        cap = dt_max(spec, s0.eps, s0.grid)
        if dt > cap * (1.0 + 1e-12):
            raise ValueError(f"step T/steps = {dt:.3g} exceeds dt_max={cap:.3g}")
        plans.append((steps, dt))

    vals = np.stack([s0.values for s0 in states])
    stepper = _make_stepper(spec, grid, [s0.eps for s0 in states], [dt for _, dt in plans])
    runs = [(steps, dt, n_snapshots, consume) for (steps, dt), consume in zip(plans, consumers)]
    trajs = _run(runs, vals, *stepper(vals), check=lambda row: _check_pointwise(spec, row))
    for traj in trajs:
        traj.meta["rhs_evals"] = 0 if spec.is_complex else 4 * traj.meta["steps_taken"]
    return trajs


def _nonfinite(state):
    """The :class:`~kdvlab.grid._NonFinite` of a batch state whose vdot is not
    finite: the rows whose own vdot is not, found one row at a time."""
    rows = [r for r, row in enumerate(state) if not math.isfinite(np.vdot(row, row).real)]
    return _NonFinite(rows, state)


def _make_stepper(spec, grid, eps, dt):
    """The stepper of a batch of runs of one family on one grid, run i at
    ``eps[i]`` with step ``dt[i]``: ``stepper(vals)``, from their stacked
    states (M, m, N), returns ``(advance, keep)``.  ``advance()`` steps every
    run of the batch and returns their states (M, m, N), raising a
    :class:`~kdvlab.grid._NonFinite` on a step that makes a non-finite
    state; ``keep(rows)`` returns the ``(advance, keep)`` of the runs at
    those rows, which carry their state on (the split step's is the
    leading-rotated state: a state rebuilt from the one it returned would
    differ in its last bits).  A batch's buffers are made when it is built;
    each step allocates only the state it returns."""
    if spec.is_complex:
        n, k = grid.n_points, grid.wavenumbers
        lin = [np.exp(h * (-0.5j * e * k**2) / e**2) for e, h in zip(eps, dt)]
        scale = [0.5 * h / e**3 for e, h in zip(eps, dt)]
        (fft, fft_scale), (ifft, ifft_scale) = _transform("fft", n), _transform("ifft", n)

        def batch(runs, state, rotated):
            # Strang step R(dt/2) L(dt) R(dt/2).  R multiplies by exp(i*scale*g)
            # with g a function of |u| alone, and keeps |u|: a step's trailing
            # half-rotation factor is the next step's leading one, so each
            # step computes one factor, and a run carries its state as
            # ``ahead``, the state with its leading half rotation applied.
            spectrum, field, rot = np.empty((3,) + state.shape, complex)
            flow = np.stack([np.tile(lin[i], (state.shape[1], 1)) for i in runs])
            theta = _phase_factors(spec, np.empty((2,) + state.shape),
                                   np.stack([np.full(state.shape[1:], scale[i]) for i in runs]))
            re, im = rot.real, rot.imag
            cos, sin, multiply, vdot, isfinite = np.cos, np.sin, np.multiply, np.vdot, math.isfinite
            ahead = state
            if not rotated:
                angle = theta(state)
                cos(angle, re)
                sin(angle, im)
                ahead = multiply(state, rot)

            def advance():
                fft(ahead, fft_scale, spectrum)
                multiply(spectrum, flow, spectrum)
                ifft(spectrum, ifft_scale, field)
                angle = theta(field)
                cos(angle, re)
                sin(angle, im)
                u = multiply(field, rot)  # the step's one allocation
                multiply(u, rot, ahead)
                if not isfinite(vdot(u, u).real):  # the mass catches NaN/inf
                    raise _nonfinite(u)
                return u

            return advance, lambda rows: batch([runs[r] for r in rows], ahead[rows], True)

        return lambda vals: batch(range(len(vals)), vals, False)

    per_run = [rk4_factors(h) for h in dt]

    def batch(runs, gam):
        work = _SpinWork(spec, grid, [eps[i] for i in runs])
        gam = gam.reshape(work.shape)

        def rhs(vals, out):  # _rhs_raw is looked up per call, so a wrapper set by name sees it
            return _rhs_raw(vals, out, work)

        m, n = work.shape[-2:]

        def stacked(j):  # each run's factor j at the shape of its rows
            return np.stack([np.broadcast_to(per_run[i][j], work.shape[:-2] + (n,)) for i in runs],
                            axis=-2)

        factors = (stacked(0), stacked(1), per_run[0][2], stacked(3))  # 2 is every run's: 0-d
        stages = tuple(np.empty((5,) + work.shape))
        norms, spread = np.empty(work.shape[:-3] + (m, n)), np.empty(work.shape)
        columns, flat = norms[..., None, :, :], (3 * work.blocks, m, n)
        add_rows, multiply, sqrt, copyto, vdot, isfinite = (np.add.reduce, np.multiply, np.sqrt,
                                                           np.copyto, np.vdot, math.isfinite)

        def advance():
            nonlocal gam
            gam = rk4_step(gam, rhs, factors, stages)
            # the squared norms summed over each sphere's 3 rows, in row order
            add_rows(multiply(gam, gam, spread), axis=-3, out=norms)
            sqrt(norms, norms)
            copyto(spread, columns)  # a broadcast divisor would allocate a buffer
            gam /= spread
            state = gam.reshape(flat).transpose(1, 0, 2)  # run r's (m, N) rows: state[r]
            if not isfinite(vdot(gam, gam)):  # a zero-norm point gives 0/0
                raise _nonfinite(state)
            return state

        return advance, lambda rows: batch([runs[r] for r in rows], gam[..., rows, :])

    return lambda vals: batch(range(len(vals)), np.ascontiguousarray(vals.transpose(1, 0, 2)))


def mass(spec: MicroModelSpec, values, grid: Grid):
    """Total ∫ |u|² dx of condensate values (m, N) on ``grid`` (conserved by
    the split step), or one per snapshot of a block (S, m, N)."""
    if not spec.is_complex:
        raise ValueError(f"mass is a condensate invariant; got {spec.kind}")
    return integrate(np.sum(np.abs(values) ** 2, axis=-2), grid)


# ---------------------------------------------------------------------------
# initial data
# ---------------------------------------------------------------------------


def well_prepared_init(spec: MicroModelSpec, A0: np.ndarray, grid: Grid, eps: float) -> MicroState:
    """Microscopic initial state whose wave observable vanishes at the grid level.

    Solves (c + i0B0) DΦ(0) ∂x φ₀ = A₀ with a spectral antiderivative and
    matches the amplitude coordinate so 2iλ n₀ equals A₀; the state is then
    assembled through the model chart.  A₀ must be real (d, N) samples on
    ``grid``, componentwise zero-mean (φ₀ could not be periodic otherwise).
    """
    g = spec.geometry
    if A0.shape != (g.dim, grid.n_points):
        raise ValueError(f"A0 must be {(g.dim, grid.n_points)}, got {A0.shape}")
    if np.iscomplexobj(A0):
        raise ValueError("A0 must be real-valued (frame coordinates)")
    scale = 1.0 + float(np.max(np.abs(A0)))
    means = np.abs(A0.mean(axis=1))
    if np.any(means > 1e-12 * scale):
        raise ValueError("A0 must be zero-mean in every component for a periodic phase")
    wave_matrix = g.c * np.eye(g.dim) + g.i0b0
    dphi0 = np.linalg.solve(wave_matrix, A0)
    ik, spec_hat = grid.rsymbol(1), _rfft(dphi0)  # k = 0 and Nyquist, where ik = 0, give 0
    phi0 = _irfft(np.divide(spec_hat, ik, out=np.zeros_like(spec_hat), where=ik != 0),
                  grid.n_points)
    n0 = (-(1.0 / (2.0 * g.lam)) * normal_coupling(spec)) * A0
    if eps * float(np.max(np.abs(phi0))) >= chart_radius(spec):
        raise ValueError("initial phase leaves the model chart; shrink A0 or eps")
    return MicroState(spec, grid, eps, chart_assemble(spec, phi0, n0, eps))
