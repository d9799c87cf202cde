"""Independent oracles the program is tested against: the exact flow of a
Fourier-diagonal linear equation, the dealiased products and the IF-RK4
step written out plainly (pad, multiply, truncate), the microscopic energy
and momentum, the residuals of the truncated first-order chart system along
a run, the limit observables, the almost-conserved functional with
``np.einsum`` contractions, the phase unwrap by ``np.unwrap``, the
solitary-wave ODE residual and the fixed points of Q(z,z) = z by a direction
scan, the microscopic right-hand sides and steps from fresh arrays (in
the lab frame, with a condensate step in the frame moving at c/eps² as the
frame reference), and the spectral derivative of any order of real or
complex samples (``derivative``; ``Grid.diff`` is d/dx of real samples only)
and their translation on the full spectrum (``full_spectrum_shift``;
``grid.fourier_shift`` translates real samples only);
plus ``record_micro``, which keeps every snapshot of a microscopic run for
the tests that need a whole run, and ``replay_blocks``, which hands such a
run to a run consumer."""

from types import SimpleNamespace

import numpy as np

from kdvlab import micro
from kdvlab.analysis import solitary_profile
from kdvlab.grid import SNAPSHOT_BLOCK, _irfft, _rfft, integrate, l2_norm
from kdvlab.hydro import extract_series
from kdvlab.kdv import bilinear_apply
from kdvlab.models import chart_assemble, chart_extract, dphi_matrix, normal_coupling

# ---------------------------------------------------------------------------
# spectral derivative
# ---------------------------------------------------------------------------


def derivative(values, grid, order):
    """d^order/dx^order of samples along the last axis (any leading shape):
    real samples through the rfft half spectrum and ``grid.rsymbol(order)``
    (a real result), complex ones through the full spectrum and
    ``grid.symbol(order)``."""
    if np.iscomplexobj(values):
        return np.fft.ifft(grid.symbol(order) * np.fft.fft(values, axis=-1), axis=-1)
    return _irfft(grid.rsymbol(order) * _rfft(values), grid.n_points)


def full_spectrum_shift(comps, grid, delta):
    """Translate samples by delta (f(x) -> f(x - delta)) via a spectral phase
    on the full spectrum, with numpy's negative Nyquist wavenumber: complex
    samples, or real ones, whose result is the real part (as 2-d samples).
    ``grid.fourier_shift`` shifts real samples on the half spectrum."""
    comps = np.atleast_2d(np.asarray(comps))
    out = np.fft.ifft(np.exp(-1j * grid.wavenumbers * delta) * np.fft.fft(comps, axis=-1), axis=-1)
    return out if np.iscomplexobj(comps) else out.real


# ---------------------------------------------------------------------------
# whole microscopic runs
# ---------------------------------------------------------------------------


def record_micro(spec, s0, T, dt, n_snapshots=11):
    """``micro.evolve_micro`` with a consumer that copies every block it is
    handed: the trajectory gains ``values`` (S, m, N), all snapshots, the
    run's ``grid`` and ``eps`` and the step ``dt`` taken."""
    blocks = []
    traj = micro.evolve_micro(spec, s0, T, dt=dt, n_snapshots=n_snapshots,
                              consume=lambda times, block: blocks.append(block.copy()))
    traj.values = np.concatenate(blocks)
    traj.grid, traj.eps = s0.grid, s0.eps
    traj.dt = T / traj.meta["steps"]
    return traj


def replay_blocks(traj, series):
    """The columns a run consumer collects along a recorded run: ``series``
    is its ``(consume, collected)``, and ``consume`` is handed the snapshots
    in the blocks ``evolve_micro`` hands over, SNAPSHOT_BLOCK at a time."""
    consume, collected = series
    for start in range(0, len(traj), SNAPSHOT_BLOCK):
        rows = slice(start, start + SNAPSHOT_BLOCK)
        consume(traj.times[rows], traj.values[rows])
    return collected()


# ---------------------------------------------------------------------------
# microscopic steps, allocating
# ---------------------------------------------------------------------------


def _phase_factors(spec, vals):
    """Condensate phase factors g_k = d_k (scalar) or lam d_k + coupling
    terms, d_k = 1 - |u_k|^2, from fresh arrays."""
    if spec.kind == "GP_SCALAR":
        return 1.0 - np.abs(vals) ** 2
    lam, gamma = spec.params["lam"], spec.params["gamma"]
    d1 = 1.0 - np.abs(vals[0]) ** 2
    d2 = 1.0 - np.abs(vals[1]) ** 2
    return np.stack([lam * d1 + 4.0 * gamma * d1 * d2, lam * d2 + 2.0 * gamma * d1 * d1])


def micro_rhs(spec, vals, grid, eps):
    """The right-hand side (m, N) of one run at ``eps`` in the lab frame: a
    condensate's from fresh arrays, a spin field's by ``micro._rhs_raw`` on
    the workspace of a batch of one run."""
    if spec.is_complex:
        g = _phase_factors(spec, vals)
        return 1j * (0.5 * eps * derivative(vals, grid, 2) + g * vals / eps) / eps**2
    work = micro._SpinWork(spec, grid, [eps])  # its shape, with one run, is a view of (m, N)
    out = micro._rhs_raw(vals.reshape(work.shape), np.empty(work.shape), work)
    return out.reshape(vals.shape)


def spin_rhs(spec, vals, grid, eps):
    """The lab-frame spin right-hand side Γ × T(Γ) (m, N) from fresh arrays,
    numpy.fft and np.cross, with the symbols and operations of
    ``micro._rhs_raw`` in the same order, so with the same bits."""
    b = 2 if spec.kind == "AF_CHAIN" else 1
    ik, ik2 = grid.rsymbol(1), grid.rsymbol(2)
    sym = np.repeat(((-0.5 if b == 2 else 0.5) / eps * ik2)[None, None, :], 3, axis=1)
    if spec.kind == "LL_EASY_PLANE":
        sym[0, 2] -= 2.0 * spec.params["k"] / eps**3
    gam = vals.reshape(b, 3, -1)
    coef = np.fft.rfft(gam, axis=-1)
    dcoef = sym * coef
    if b == 2:
        couple = np.stack([-ik / eps**2, ik / eps**2])[:, None, :] + 2.0 / eps**3
        dcoef += couple * coef[::-1]
    torque = np.fft.irfft(dcoef, grid.n_points, axis=-1)
    if spec.kind == "LL_EASY_CONE":
        p = spec.params
        dev = gam[:, 2] - np.cos(p["theta0"])
        torque[:, 2] += dev * (3.0 * p["beta"] / eps**3 * dev - 2.0 * p["alpha"] / eps**3)
    return np.cross(gam, torque, axis=1).reshape(vals.shape)


def _strang_steps(spec, vals, eps, dt, lin):
    """The states after each Strang step R(dt/2) L(dt) R(dt/2) with the
    linear factor ``lin`` per Fourier mode and the trailing half-rotation
    factor reused as the next step's leading one."""

    def rotation(z):
        theta = _phase_factors(spec, z) * (0.5 * dt / eps**3)
        rot = np.empty(z.shape, complex)
        rot.real, rot.imag = np.cos(theta), np.sin(theta)
        return rot

    ahead = vals * rotation(vals)
    while True:
        u = np.fft.ifft(np.fft.fft(ahead, axis=-1) * lin, axis=-1)
        rot = rotation(u)
        u = u * rot
        yield u
        ahead = u * rot


def moving_frame_strang_steps(spec, vals, grid, eps, dt):
    """The condensate Strang steps in the frame moving at c/eps²: the linear
    flow gains the transport exp(i c k dt/eps²), a sub-grid translation."""
    k = grid.wavenumbers
    lin = np.exp(dt * (1j * spec.geometry.c * k - 0.5j * eps * k**2) / eps**2)
    return _strang_steps(spec, vals, eps, dt, lin)


def micro_steps(spec, vals, grid, eps, dt):
    """The states after each step of ``micro._make_stepper`` from fresh arrays
    and numpy.fft, operation for operation: the Strang split step with the
    trailing half-rotation factor reused, or RK4 on :func:`spin_rhs` with the
    per-sphere renormalization."""
    if spec.is_complex:
        lin = np.exp(dt * (-0.5j * eps * grid.wavenumbers**2) / eps**2)
        yield from _strang_steps(spec, vals, eps, dt, lin)
    b = 2 if spec.kind == "AF_CHAIN" else 1
    while True:
        k1 = spin_rhs(spec, vals, grid, eps)
        k2 = spin_rhs(spec, k1 * (0.5 * dt) + vals, grid, eps)
        k3 = spin_rhs(spec, k2 * (0.5 * dt) + vals, grid, eps)
        k4 = spin_rhs(spec, k3 * dt + vals, grid, eps)
        gam = ((k2 * 2.0 + k1 + k3 * 2.0 + k4) * (dt / 6.0) + vals).reshape(b, 3, -1)
        vals = (gam / np.sqrt(np.einsum("bin,bin->bn", gam, gam))[:, None]).reshape(vals.shape)
        yield vals


def stepper_states(spec, grid, eps, dt, vals):
    """The states (m, N) after each step of one run from ``vals``, stepped
    alone by ``micro._make_stepper`` (a batch of one run)."""
    advance, _ = micro._make_stepper(spec, grid, [eps], [dt])(vals[None])
    while True:
        yield advance()[0]


def linearize_rhs(spec, grid, eps, h=1e-4):
    """Per-mode matrices S(κ) of :func:`micro_rhs` linearized at the chart
    background (phi = n = 0): an array (N//2+1, m, m), S[j] acting on the
    real state coordinates at κ = grid.wavenumbers[j], so that a perturbation
    v e^{iκx} grows as e^{λt} for each eigenpair (λ, v) of S[j].  The real
    coordinates are the m rows of a spin state and (Re, Im) of a condensate's
    rows, since a condensate's right-hand side is not complex-linear.  S is
    in the lab frame, where every family steps.

    Column r comes from 4 evaluations: the right-hand side at the background
    plus s δ_r, for s = ±h, ±2h and δ_r coordinate r at the grid point x = 0
    (its spectrum is 1 at every wavenumber, so the spectrum of the response
    is column r of every S(κ) at once), combined by the fourth-order central
    difference, which is exact for the right-hand sides (polynomials of
    degree at most 5 in the state, 4 with gamma = 0) up to rounding."""
    d, n = spec.geometry.dim, grid.n_points
    background = chart_assemble(spec, np.zeros((d, n)), np.zeros((d, n)), eps)
    base = np.concatenate([background.real, background.imag]) if spec.is_complex else background
    m = len(base)

    def rhs(real):
        vals = real[: m // 2] + 1j * real[m // 2:] if spec.is_complex else real
        out = micro_rhs(spec, vals, grid, eps)
        return np.concatenate([out.real, out.imag]) if spec.is_complex else out

    S = np.empty((n // 2 + 1, m, m), complex)
    for r in range(m):
        delta = np.zeros((m, n))
        delta[r, 0] = 1.0
        step = {s: rhs(base + s * h * delta) for s in (-2, -1, 1, 2)}
        response = (8.0 * (step[1] - step[-1]) - (step[2] - step[-2])) / (12.0 * h)
        S[:, :, r] = np.fft.rfft(response, axis=-1).T
    return S


# ---------------------------------------------------------------------------
# limit observables
# ---------------------------------------------------------------------------


def tangent_gradient(spec, h):
    """X = DPhi dx(phi) of chart states, as a coordinate array shaped like
    ``h.phi``."""
    X = h.grid.diff(h.phi)
    if spec.kind == "AF_CHAIN":  # DPhi is the identity on the circle charts
        X = np.einsum("...ijN,...jN->...iN", dphi_matrix(h.phi, h.eps), X)
    return X


def observables(spec, h):
    """The limit observables of chart states from their definitions, as
    coordinate arrays shaped like ``h.phi``: with X = DPhi dx(phi) and
    A = -2 lam s n (s the normal sign), W = (c + i0B0) X - A and
    U = (c - i0B0) X + A."""
    g = spec.geometry
    X = tangent_gradient(spec, h)
    A = -2.0 * g.lam * (normal_coupling(spec) * h.n)
    BX = np.einsum("ij,...jN->...iN", g.i0b0, X)
    return SimpleNamespace(W=(g.c * X + BX) - A, U=(g.c * X - BX) + A, A=A)


def almost_hamiltonian(spec, h):
    """(H, W) of ``hydro.almost_hamiltonian``, operation for operation, with
    each contraction with a geometry tensor one ``np.einsum`` over all its
    entries."""
    g, eps, n, grid = spec.geometry, h.eps, h.n, h.grid
    C = normal_coupling(spec) * np.eye(g.dim)  # the coupling matrix s I
    density = g.lam * np.sum(np.square(n), axis=-2)
    tmp = grid.diff(n)
    density += 0.25 * eps**4 * np.sum(np.square(tmp, out=tmp), axis=-2)
    f1_nu = -np.einsum("ijm,mk->ijk", g.f1, C)
    density += (eps**2 / 3.0) * np.einsum("ijk,...iN,...jN,...kN->...N", f1_nu, n, n, n)
    X = tangent_gradient(spec, h)
    Cn = C.T @ n
    corr = np.einsum("ijm,...iN,...mN->...jN", g.ii_perp, X, Cn)
    corr *= eps**2
    density += 0.25 * np.sum(np.square(np.add(X, corr, out=tmp), out=tmp), axis=-2)
    corr *= 0.5
    corr += X
    np.einsum("ij,...jN->...iN", g.i0b0, corr, out=tmp)
    corr *= g.c
    corr += tmp
    corr *= Cn
    density += np.sum(corr, axis=-2)
    np.einsum("ij,...jN->...iN", g.i0b0, X, out=tmp)
    X *= g.c
    X += tmp
    Cn *= 2.0 * g.lam
    X += Cn
    return integrate(density, grid), X


# ---------------------------------------------------------------------------
# phase unwrap
# ---------------------------------------------------------------------------


def unwrap_periodic(raw):
    """``models._unwrap_periodic`` with ``np.unwrap``: the angles unwrapped
    along the last axis and the winding numbers of the periodic closure."""
    unwrapped = np.unwrap(raw, axis=-1)
    closure = unwrapped[..., -1] - unwrapped[..., 0]
    seam = np.angle(np.exp(1j * (raw[..., 0] - raw[..., -1])))
    return unwrapped, np.rint((closure + seam) / (2.0 * np.pi)).astype(int)


# ---------------------------------------------------------------------------
# linear flow
# ---------------------------------------------------------------------------


def advance_linear(f, symbol, dt: float):
    """Multiply each Fourier mode of the samples ``f`` (along the last axis)
    by exp(symbol*dt).

    ``symbol`` holds the per-mode complex multipliers in FFT order, e.g.
    grid.symbol(3) / (8*c) for the quarter-Airy flow 2c*dA/dt = (1/4)*dxxx A.
    Real samples stay real; an overflowing factor raises OverflowError.
    """
    f = np.asarray(f)
    if not np.isfinite(f).all():
        raise ValueError("advance_linear: non-finite input field")
    with np.errstate(over="ignore"):
        factor = np.exp(np.asarray(symbol, dtype=np.complex128) * dt)
    if not np.isfinite(factor).all():
        raise OverflowError("advance_linear: exp(symbol*dt) overflowed")
    out = np.fft.ifft(factor * np.fft.fft(f, axis=-1), axis=-1)
    return out if np.iscomplexobj(f) else out.real


# ---------------------------------------------------------------------------
# dealiased products and the IF-RK4 step, written out plainly
# ---------------------------------------------------------------------------


def pad_to(coeffs, n: int, m: int):
    """Samples on m >= n points of the trigonometric polynomial whose rfft
    coefficients on n points are ``coeffs`` (last axis), from one irfft.

    Zero-pads the spectrum; exact for band-limited data.
    """
    half = n // 2
    spec = np.zeros(coeffs.shape[:-1] + (m // 2 + 1,), dtype=np.complex128)
    if n % 2 == 0 and m > n:
        # split the Nyquist coefficient between +k and -k on the finer grid
        spec[..., :half] = coeffs[..., :half]
        spec[..., half] = 0.5 * coeffs[..., half]
    else:
        spec[..., : half + 1] = coeffs
    return np.fft.irfft(spec, m, axis=-1) * (m / n)


def truncate_to(samples, n: int):
    """Inverse of pad_to: the rfft coefficients on n points of the n-mode
    projection of real samples on m >= n points, from one rfft."""
    m = samples.shape[-1]
    coeffs = np.fft.rfft(samples, axis=-1)[..., : n // 2 + 1] * (n / m)
    if n % 2 == 0 and m > n:
        # recombine the two halves of the split Nyquist mode
        coeffs[..., n // 2] = 2.0 * coeffs[..., n // 2].real
    return coeffs


def pad_size(n: int) -> int:
    """The 3/2-rule grid: the smallest even size >= 3n/2."""
    m = -(-3 * n // 2)
    return m + m % 2


def canonical_nonlinear(Q, grid):
    """-dx Q(u, u) on rfft coefficients, padded by the 3/2 rule."""
    n, m = grid.n_points, pad_size(grid.n_points)

    def nonlin(v):
        up = pad_to(v, n, m)
        return -grid.rsymbol(1) * truncate_to(np.einsum("ijk,im,jm->km", Q.coeffs, up, up), n)

    return nonlin


def raw_nonlinear(tensor, c, grid):
    """G(dx A, A) / (2c) on rfft coefficients, padded by the 3/2 rule."""
    n, m, d = grid.n_points, pad_size(grid.n_points), len(tensor)

    def nonlin(v):
        p = pad_to(np.concatenate([grid.rsymbol(1) * v, v]), n, m)
        return truncate_to(np.einsum("ijk,im,jm->km", tensor, p[:d], p[d:]), n) / (2.0 * c)

    return nonlin


def mkdv_nonlinear(Q, grid):
    """-(2/3) Q(v, Q(v, dx v)) on rfft coefficients, padded to twice the grid."""
    n, d = grid.n_points, Q.dim

    def nonlin(w):
        p = pad_to(np.concatenate([w, grid.rsymbol(1) * w]), n, 2 * n)
        inner = np.einsum("ijk,im,jm->km", Q.coeffs, p[:d], p[d:])
        return -(2.0 / 3.0) * truncate_to(np.einsum("ijk,im,jm->km", Q.coeffs, p[:d], inner), n)

    return nonlin


def ifrk4_step(v_hat, e_half, nonlinear, dt: float, e_full):
    """Integrating-factor RK4 for d/dt v = L v + N(v), with e_half =
    exp(L dt/2) and e_full = exp(L dt): classical RK4 on w = exp(-L t) v."""
    half_dt = 0.5 * dt
    n1 = nonlinear(v_hat)
    n2 = nonlinear(e_half * (v_hat + half_dt * n1))
    n3 = nonlinear(e_half * v_hat + half_dt * n2)
    n4 = nonlinear(e_full * v_hat + dt * e_half * n3)
    return e_full * (v_hat + (dt / 6.0) * n1) + (dt / 6.0) * (2.0 * e_half * (n2 + n3) + n4)


# ---------------------------------------------------------------------------
# microscopic invariants
# ---------------------------------------------------------------------------


def _potential_density(spec, vals):
    if spec.kind == "GP_SCALAR":
        return 0.25 * (1.0 - np.abs(vals[0]) ** 2) ** 2
    if spec.kind == "GP_COUPLED":
        lam = spec.params["lam"]
        gamma = spec.params["gamma"]
        d1 = 1.0 - np.abs(vals[0]) ** 2
        d2 = 1.0 - np.abs(vals[1]) ** 2
        return 0.25 * lam * (d1**2 + d2**2) + gamma * d1 * d1 * d2
    if spec.kind == "LL_EASY_PLANE":
        return spec.params["k"] * vals[2] ** 2
    if spec.kind == "LL_EASY_CONE":
        dev = vals[2] - np.cos(spec.params["theta0"])
        return spec.params["alpha"] * dev**2 - spec.params["beta"] * dev**3
    raise ValueError(f"no scalar potential for {spec.kind}")


def _azimuth_momentum_density(axis, p, q, reference, grid):
    """(gamma* - axis component) times the pointwise azimuth derivative."""
    dp = grid.diff(p)
    dq = grid.diff(q)
    planar = p * p + q * q
    with np.errstate(invalid="ignore", divide="ignore"):
        dazi = np.where(planar > 1e-28, (p * dq - q * dp) / planar, 0.0)
    return (reference - axis) * dazi


def micro_invariants(spec, vals, grid, eps):
    """Energy and momentum of microscopic values (m, N), spectrally evaluated.

    Condensates: E = ∫ [ eps²/4 |∂x u|² + V(u) ] dx (exactly conserved by the
    rescaled flow) and P = -Im ∫ conj(u)·∂x u dx.  Single spin chain: the
    plain ∫ [ ½|∂x Γ|² + V(Γ) ] dx energy display (the conserved variant
    weights the gradient by eps²/4 instead) and the magnetic momentum
    ∫ (γ₀ - Γ₃) ∂x(azimuth) dx.  Staggered pair: the conserved energy
    ∫ [ eps²/4 (|∂x u|² + |∂x v|²) + |u+v|² - eps u·∂x v ] dx and the two
    spheres' magnetic momenta about the easy axis, summed.
    """
    if spec.is_complex:
        du = derivative(vals, grid, 1)
        energy = integrate(
            0.25 * eps**2 * np.sum(np.abs(du) ** 2, axis=0) + _potential_density(spec, vals),
            grid,
        )
        momentum = integrate(-np.imag(np.sum(np.conj(vals) * du, axis=0)), grid)
        return energy, momentum
    if spec.kind == "AF_CHAIN":
        u, v = vals[:3], vals[3:]
        du = grid.diff(u)
        dv = grid.diff(v)
        dens = (
            0.25 * eps**2 * (np.sum(du**2, axis=0) + np.sum(dv**2, axis=0))
            + np.sum((u + v) ** 2, axis=0)
            - eps * np.sum(u * dv, axis=0)
        )
        momentum = integrate(
            _azimuth_momentum_density(u[0], u[1], u[2], 1.0, grid)
            + _azimuth_momentum_density(v[0], v[1], v[2], -1.0, grid),
            grid,
        )
        return integrate(dens, grid), momentum
    # single spin chain; azimuth measured about the anisotropy axis e3
    dg = grid.diff(vals)
    energy = integrate(0.5 * np.sum(dg**2, axis=0) + _potential_density(spec, vals), grid)
    gamma0 = 0.0 if spec.kind == "LL_EASY_PLANE" else np.cos(spec.params["theta0"])
    momentum = integrate(_azimuth_momentum_density(vals[2], vals[0], vals[1], gamma0, grid), grid)
    return energy, momentum


# ---------------------------------------------------------------------------
# truncated first-order system
# ---------------------------------------------------------------------------

RESIDUAL_KINDS = ("GP_SCALAR", "LL_EASY_PLANE")


def _neighbour(spec, traj, vals, h):
    """One step of the run's stepper by h from a snapshot ``vals`` of ``traj``,
    in the frame moving at c/eps²: the step is made in the lab frame, so its
    result is translated by -(c/eps²) h."""
    step = next(stepper_states(spec, traj.grid, traj.eps, h, vals))
    return full_spectrum_shift(step, traj.grid, -spec.geometry.c / traj.eps**2 * h)


def _triplet(spec, traj, idx):
    """(previous, current, next) chart states around snapshot ``idx``, with a
    common phase branch, or None when one leaves the chart.  The neighbours
    are one integrator step at -dt and at +dt from the snapshot, in the
    moving frame (:func:`_neighbour`; the symmetric Strang step at -dt is the
    exact inverse)."""
    vals = traj.values[idx]
    prev_vals, next_vals = (_neighbour(spec, traj, vals, h) for h in (-traj.dt, traj.dt))
    cur = extract_series(spec, vals, traj.grid, traj.eps)
    ref = cur.phi
    phi_p, n_p, in_chart_p = chart_extract(spec, prev_vals, traj.eps, phase_ref=ref)
    phi_n, n_n, in_chart_n = chart_extract(spec, next_vals, traj.eps, phase_ref=ref)
    if not (cur.valid and in_chart_p and in_chart_n):
        return None
    return (phi_p, n_p), cur, (phi_n, n_n)


def hydro_residual(spec, traj, ablate_singular=False) -> dict:
    """L2 residuals of the truncated first-order system along a run.

    Evaluates, at every snapshot but the first and the last, both lines of
    the order-one system satisfied by (phi, n) — time derivatives by centered
    differencing over one step either side — and reports the L2 norm of each
    line.  On exact solutions the residual is O(eps^2); with
    ``ablate_singular`` the singular 1/eps^2 transport blocks are dropped,
    which must inflate the residual by orders of magnitude (wiring check).

    Supported for the scalar condensate and the easy-plane spin chain, whose
    charts make the truncated system scalar and explicit.
    """
    if spec.kind not in RESIDUAL_KINDS:
        raise ValueError(
            f"hydro residual not supported for {spec.kind}; "
            f"supported kinds: {RESIDUAL_KINDS}"
        )
    g = spec.geometry
    eps, dt = traj.eps, traj.dt
    grid = traj.grid
    dx = grid.diff

    times, r1_norms, r2_norms = [], [], []
    for idx in range(1, len(traj) - 1):
        trip = _triplet(spec, traj, idx)
        if trip is None:
            continue
        (phi_p, n_p), cur, (phi_n, n_n) = trip
        phi = cur.phi[0]
        n = cur.n[0]
        phi_t = (phi_n[0] - phi_p[0]) / (2.0 * dt)
        n_t = (n_n[0] - n_p[0]) / (2.0 * dt)
        phi_x = dx(phi)
        n_x = dx(n)
        sing = 0.0 if ablate_singular else 1.0 / eps**2
        if spec.kind == "GP_SCALAR":
            rho = 1.0 + eps**2 * n
            r1 = (rho * phi_t - sing * (g.c * rho * phi_x - 2.0 * n)
                  - 0.5 * dx(n_x) + 0.5 * phi_x**2 + 3.0 * n**2)
            r2 = (n_t - sing * (g.c * n_x - 0.5 * dx(rho * phi_x))
                  + 0.5 * phi_x * n_x)
        else:  # LL_EASY_PLANE
            r1 = (phi_t - sing * (g.c * phi_x + 2.0 * g.lam * n)
                  + 0.5 * dx(n_x))
            r2 = n_t - sing * (g.c * n_x + 0.5 * dx(phi_x))
        times.append(traj.times[idx])
        r1_norms.append(l2_norm(r1, grid))
        r2_norms.append(l2_norm(r2, grid))
    if not times:
        raise ValueError("no interior snapshot inside the chart is available")
    r1_norms = np.array(r1_norms)
    r2_norms = np.array(r2_norms)
    total = np.sqrt(r1_norms**2 + r2_norms**2)
    return {
        "times": np.array(times),
        "line1": r1_norms,
        "line2": r2_norms,
        "total": total,
        "sup_line1": float(r1_norms.max()),
        "sup_line2": float(r2_norms.max()),
        "sup_total": float(total.max()),
    }


# ---------------------------------------------------------------------------
# solitary waves
# ---------------------------------------------------------------------------


def soliton_ode_residual(Q, z, grid, profile=None) -> float:
    """L2 norm of P' - P''' + Q(P,P)' for P(x) = q(x - L/2) z on the grid.

    ``profile`` defaults to the solitary profile (residual at spectral
    roundoff); any other profile of the same decay class gives an O(1) value.
    """
    q = profile if profile is not None else solitary_profile
    z = np.atleast_1d(np.asarray(z, dtype=float))
    P = np.outer(z, q(grid.x - 0.5 * grid.length))
    flux = bilinear_apply(Q.coeffs, P, P)
    resid = grid.diff(P) - derivative(P, grid, 3) + grid.diff(flux)
    return l2_norm(resid, grid)


def scan_fixed_points(Q, samples=2**16):
    """The nonzero solutions of Q(z,z) = z for d <= 2 by brute force.

    d = 1: z = 1/q.  d = 2: the directions r = (cos th, sin th) along which
    Q(r,r) is parallel to r are the zeros of f = r1 Q2(r,r) - r2 Q1(r,r);
    ``samples`` points of th in [0, pi) locate its sign changes (f(th + pi) =
    -f(th) closes the last interval), 200 bisection passes refine each, and
    r = (0, 1) is checked on its own.  Each direction with Q(r,r).r != 0
    gives z = r / (Q(r,r).r).  Returns the roots sorted by norm."""
    c = Q.coeffs
    if Q.dim == 1:
        return [np.array([1.0 / c[0, 0, 0]])]

    def f(th):
        r = np.array([np.cos(th), np.sin(th)])
        q = np.einsum("ijk,i...,j...->k...", c, r, r)
        return r[0] * q[1] - r[1] * q[0]

    th = np.pi * np.arange(samples + 1) / samples
    vals = f(th)
    vals[-1] = -vals[0]
    found = list(th[:-1][vals[:-1] == 0.0])
    for i in np.flatnonzero(vals[:-1] * vals[1:] < 0.0):
        lo, hi = th[i], th[i + 1]
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if np.sign(f(mid)) == np.sign(vals[i]):
                lo = mid
            else:
                hi = mid
        found.append(lo)
    directions = [np.array([np.cos(t), np.sin(t)]) for t in found]
    if c[1, 1, 0] == 0.0:
        directions.append(np.array([0.0, 1.0]))
    roots = []
    for r in directions:
        scale = float(np.einsum("ijk,i,j,k->", c, r, r, r))
        if scale != 0.0:
            roots.append(r / scale)
    return sorted(roots, key=np.linalg.norm)
