"""Phase/amplitude diagnostics connecting microscopic runs to the limit flow.

The microscopic fields are re-expressed in the chart coordinates (phi, n) —
a phase-like tangential coordinate and a normal amplitude.  On top of that
live the limit observables

    W = (c + iB) DPhi dx(phi) - 2 i lam n      (vanishes in the limit)
    A = 2 i lam n                              (the limiting profile)
    U = (c - iB) DPhi dx(phi) + A              (the complementary combination)

expressed throughout in the tangent-frame coordinates of the model chart,
plus an almost-conserved energy functional and the error measures that
compare a microscopic run, block by block as it streams its snapshots,
against a limit-equation trajectory.
"""

from __future__ import annotations

import numpy as np

from .grid import Trajectory, _hs_norms, fourier_shift, integrate, l2_norm
from .models import chart_extract, dphi_matrix, normal_coupling


class HydroState:
    """Chart coordinates of one microscopic state, or of a block of snapshots.

    ``phi`` and ``n`` are real arrays (d, N) for one state and (S, d, N) for
    S snapshots of a run; ``valid`` records, per state, whether it lies inside
    the chart (radial/tilt range and zero winding).  A block has a length and
    yields its snapshots as single-state HydroStates.
    """

    def __init__(self, grid, eps: float, phi, n, valid):
        self.grid = grid
        self.eps = float(eps)
        self.phi = np.asarray(phi, dtype=float)
        self.n = np.asarray(n, dtype=float)
        self.valid = np.asarray(valid, dtype=bool)

    def __len__(self):
        return len(self.valid)

    def __iter__(self):
        for phi, n, valid in zip(self.phi, self.n, self.valid):
            yield HydroState(self.grid, self.eps, phi, n, valid)


def extract_series(spec, values, grid, eps: float, phase_ref=None) -> HydroState:
    """Chart coordinates of microscopic values (m, N) at ``eps`` on ``grid``,
    or of a block of consecutive snapshots of a run, values (S, m, N), with
    the phase branch continued along it.

    ``phase_ref`` (a previous phi array, for a block the phi of the snapshot
    before it) selects the phase branch of the first state closest to it.
    """
    phi, n, in_chart = chart_extract(spec, values, eps, phase_ref=phase_ref)
    return HydroState(grid, eps, phi, n, in_chart)


def _tangent_gradient(spec, h: HydroState, dphi) -> np.ndarray:
    """Tangent-frame coordinates DPhi dx(phi) of chart states, (..., d, N),
    from ``dphi`` = dx(phi) (returned itself on the circle charts)."""
    if spec.kind != "AF_CHAIN":  # DPhi is the identity on the circle charts
        return dphi
    J = dphi_matrix(h.phi, h.eps)
    return np.einsum("...ijN,...jN->...iN", J, dphi)


def _contract(tensor, rows, out, term):
    """``np.einsum`` of a small constant tensor with coordinate rows, over the
    tensor's nonzero entries only, with einsum's products and summation
    order: ``out`` is zeroed, then for each nonzero entry t = tensor[idx], in
    lexicographic order of idx, ``rows(*idx)`` gives the target row and the
    factor rows (f1, f2, ...), and the target gets (t * f1) * f2 ... added,
    formed in ``term``.  The skipped zero entries would add signed zeros,
    which change no sum of finite values."""
    out.fill(0.0)
    for idx in zip(*np.nonzero(tensor)):
        target, factors = rows(*idx)
        np.multiply(tensor[idx], factors[0], out=term)
        for f in factors[1:]:
            term *= f
        target += term
    return out


def almost_hamiltonian(spec, h: HydroState, dphi):
    """Almost-conserved energy of chart states, and their wave observable W.

    Returns ``(H, W)``, both from one tangent gradient of ``dphi`` =
    dx(phi): H a float for one state and one value per snapshot of a block,
    W the coordinate array (c + i0B0) DPhi dx(phi) + 2 lam s n shaped like
    ``h.phi``.  On the circle charts DPhi is the identity and ``dphi`` itself
    is overwritten with W, so a caller that needs dx(phi) reads it first.
    Here

        H = int [ lam |n|^2 + (1/4)|eps^2 dx n|^2 + (eps^2/3) F1(n,n).n
                  + (1/4)|S0 DPhi dx(phi)|^2
                  + (c+iB)(DPhi dx(phi) + (eps^2/2) II(DPhi dx(phi), n)) . s n ]

    with S0 = Id + eps^2 II(., n), II(., n) the shape-operator correction
    and s the chart's normal sign (:func:`~kdvlab.models.normal_coupling`).
    H matches the leading term ||W||^2/(4 lam) up to O(eps^2); along a
    microscopic run it drifts by O(eps).  The contractions with the geometry
    tensors run over their nonzero entries (:func:`_contract`); for the
    condensates those are diagonal and i0B0 is zero.
    """
    g = spec.geometry
    eps = h.eps
    s = normal_coupling(spec)
    n = h.n
    grid = h.grid
    density = g.lam * np.sum(np.square(n), axis=-2)
    tmp = grid.diff(n)  # one scratch array and in-place updates keep the block working set small
    density += 0.25 * eps**4 * np.sum(np.square(tmp, out=tmp), axis=-2)
    f1_nu = -s * g.f1
    cubic, term = np.empty((2,) + density.shape)
    _contract(f1_nu, lambda i, j, k: (cubic, (n[..., i, :], n[..., j, :], n[..., k, :])), cubic, term)
    cubic *= eps**2 / 3.0
    density += cubic
    X = _tangent_gradient(spec, h, dphi)
    sn = s * n
    corr = np.empty(X.shape)
    _contract(g.ii_perp, lambda i, j, m: (corr[..., j, :], (X[..., i, :], sn[..., m, :])), corr, term)
    corr *= eps**2
    density += 0.25 * np.sum(np.square(np.add(X, corr, out=tmp), out=tmp), axis=-2)
    corr *= 0.5
    corr += X  # X + (eps^2/2) II(X, n)
    _contract(g.i0b0, lambda i, j: (tmp[..., i, :], (corr[..., j, :],)), tmp, term)
    corr *= g.c
    corr += tmp
    corr *= sn
    density += np.sum(corr, axis=-2)
    _contract(g.i0b0, lambda i, j: (tmp[..., i, :], (X[..., j, :],)), tmp, term)
    X *= g.c  # X becomes W
    X += tmp
    sn *= 2.0 * g.lam
    X += sn
    return integrate(density, grid), X


def energy_proxy(h: HydroState, dphi):
    """Heuristic energy monitor ||dx phi||_{H^2} + ||n||_{H^2}, per state,
    from ``dphi`` = dx(phi)."""
    a = _hs_norms(dphi, h.grid, 2)
    b = _hs_norms(h.n, h.grid, 2)
    return np.sqrt(np.sum(np.square(a), axis=-1)) + np.sqrt(np.sum(np.square(b), axis=-1))


def limit_error(spec, times, h: HydroState, w, kdv_traj: Trajectory) -> dict:
    """Per-snapshot L2 errors of a block of a microscopic run (snapshot
    times ``times``, chart coordinates ``h``, wave observable ``w`` from
    :func:`almost_hamiltonian`) against the snapshots of a limit-equation run
    (its ``meta["snapshots"]``) at the same times.

    Compares the two candidate profiles — the amplitude observable
    A = 2 i lam n and the gradient observable A + W = (c+iB) DPhi dx(phi) —
    against the limit profile A(t).  The limit lives in the frame moving at
    c/eps^2 and the micro run in the lab frame, so each limit snapshot is
    translated by (c/eps^2) t first.  The other diagnostics are
    translation-invariant and read the lab-frame block as it is.
    """
    t_micro = np.asarray(times)
    t_kdv = np.asarray(kdv_traj.times)
    tol = 1e-9 * max(1.0, float(np.max(np.abs(t_micro), initial=0.0)))
    gaps = np.abs(t_kdv[None, :] - t_micro[:, None])
    picks = np.argmin(gaps, axis=1)
    misses = np.flatnonzero(gaps.min(axis=1) > tol)
    if misses.size:
        i = misses[0]
        raise ValueError(
            f"time grids do not match: micro snapshot t={t_micro[i]} has no "
            f"limit-run counterpart (nearest {t_kdv[picks[i]]})"
        )

    grid = h.grid
    A = -2.0 * spec.geometry.lam * (normal_coupling(spec) * h.n)
    a_limit = kdv_traj.meta["snapshots"][picks]  # a copy: the rows are shifted in place
    speed = spec.geometry.c / h.eps**2
    for row, t in zip(a_limit, t_micro):
        row[...] = fourier_shift(row, grid, speed * t)
    return {
        "err_amplitude": l2_norm(A - a_limit, grid),
        "err_gradient": l2_norm(A + w - a_limit, grid),
    }
