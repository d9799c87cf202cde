"""Phase/amplitude diagnostics connecting microscopic runs to the limit flow.

The microscopic fields are re-expressed in the chart coordinates (phi, n) —
a phase-like tangential coordinate and a normal amplitude.  On top of that
live the limit observables

    W = (c + iB) DPhi dx(phi) - 2 i lam n      (vanishes in the limit)
    A = 2 i lam n                              (the limiting profile)
    U = (c - iB) DPhi dx(phi) + A              (the complementary combination)

expressed throughout in the tangent-frame coordinates of the model chart,
plus an almost-conserved energy functional and the error measures that
compare a microscopic trajectory against a limit-equation trajectory.
"""

from __future__ import annotations

import numpy as np

from .grid import Trajectory, _hs_norms, integrate, l2_norm
from .micro import MicroState
from .models import chart_extract, chart_radius, dphi_matrix, normal_coupling

# Snapshots per block of the run diagnostics: the numpy call overhead is paid
# once per block, while the temporaries stay small (on a 2001-snapshot
# coupled-condensate run, a 1.7 MB allocation peak against 98 MB for the
# whole run in one batch).
SNAPSHOT_BLOCK = 32


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


class Observables:
    """The three limit observables of a chart state, as coordinate arrays
    shaped like its ``phi``."""

    def __init__(self, W, U, A):
        self.W = W
        self.U = U
        self.A = A


def extract_hydro(spec, s: MicroState, phase_ref=None) -> HydroState:
    """Chart coordinates of a microscopic state, or of a block of snapshots
    (``s.values`` of shape (S, m, N)) with the phase branch continued along it.

    ``phase_ref`` (a previous phi array) selects the phase branch of the
    first state closest to it, for continuity across snapshots of a run.
    """
    phi, n, info = chart_extract(spec, s.values, s.eps, phase_ref=phase_ref)
    return HydroState(s.grid, s.eps, phi, n, info["in_chart"])


def extract_series(spec, traj: Trajectory, start: int, stop: int,
                   phase_ref=None) -> HydroState:
    """Chart coordinates of snapshots ``start:stop`` of a run (required: use
    ``iter_blocks`` for a whole run), as one block, phase-continuous along the
    run; ``phase_ref`` is the phi of snapshot ``start - 1``."""
    block = MicroState(spec, traj.states[0].grid, traj.meta["eps"], traj.values[start:stop],
                       validate=False)
    return extract_hydro(spec, block, phase_ref=phase_ref)


def iter_blocks(spec, traj: Trajectory):
    """Yield ``(rows, block)`` for consecutive blocks of SNAPSHOT_BLOCK
    snapshots of a run: ``rows`` is the slice of snapshots and ``block`` their
    HydroState, the phase branch carried across block seams."""
    ref = None
    for start in range(0, len(traj), SNAPSHOT_BLOCK):
        rows = slice(start, start + SNAPSHOT_BLOCK)
        block = extract_series(spec, traj, rows.start, rows.stop, phase_ref=ref)
        ref = block.phi[-1]
        yield rows, block


def _tangent_gradient(spec, h: HydroState) -> np.ndarray:
    """Tangent-frame coordinates DPhi dx(phi) of chart states, (..., d, N)."""
    dphi = h.grid.diff(h.phi)
    if spec.kind != "AF_CHAIN":  # DPhi is the identity on the circle charts
        return dphi
    J = dphi_matrix(spec, h.phi, h.eps)
    return np.einsum("...ijN,...jN->...iN", J, dphi)


def observables(spec, h: HydroState) -> Observables:
    """Limit observables W, U, A of chart states (one per snapshot of a block).

    The coordinates satisfy DPhi dx(phi) = (U + W)/(2c) and
    A = ((c+iB)U - (c-iB)W)/(2c) identically.
    """
    g = spec.geometry
    X = _tangent_gradient(spec, h)
    A = -2.0 * g.lam * (normal_coupling(spec).T @ h.n)
    BX = np.einsum("ij,...jN->...iN", g.i0b0, X)
    return Observables(W=(g.c * X + BX) - A, U=(g.c * X - BX) + A, A=A)


def almost_hamiltonian(spec, h: HydroState):
    """Almost-conserved energy of chart states, and their ||W||_{L2}.

    Returns ``(H, w_norm)`` (floats for one state, arrays over the snapshots
    of a block), both from one tangent gradient, where

        H = int [ lam |n|^2 + (1/4)|eps^2 dx n|^2 + (eps^2/3) F1(n,n).n
                  + (1/4)|S0 DPhi dx(phi)|^2
                  + (c+iB)(DPhi dx(phi) + (eps^2/2) II(DPhi dx(phi), n)) . Cn ]

    with S0 = Id + eps^2 II(., n) and II(., n) the shape-operator correction.
    H matches the leading term ||W||^2/(4 lam) up to O(eps^2); along a
    microscopic run it drifts by O(eps).
    """
    g = spec.geometry
    eps = h.eps
    C = normal_coupling(spec)
    n = h.n
    grid = h.grid
    dn = grid.diff(n)
    X = _tangent_gradient(spec, h)
    Cn = C.T @ n
    corr = np.einsum("ijm,...iN,...mN->...jN", g.ii_perp, X, Cn)
    s0x = X + eps**2 * corr
    f1_nu = -np.einsum("ijm,mk->ijk", g.f1, C)
    cubic = np.einsum("ijk,...iN,...jN,...kN->...N", f1_nu, n, n, n)
    half = X + 0.5 * eps**2 * corr
    cross_vec = g.c * half + np.einsum("ij,...jN->...iN", g.i0b0, half)
    density = (
        g.lam * np.sum(n**2, axis=-2)
        + 0.25 * eps**4 * np.sum(dn**2, axis=-2)
        + (eps**2 / 3.0) * cubic
        + 0.25 * np.sum(s0x**2, axis=-2)
        + np.sum(cross_vec * Cn, axis=-2)
    )
    W = g.c * X + np.einsum("ij,...jN->...iN", g.i0b0, X) + 2.0 * g.lam * Cn
    return integrate(density, grid), l2_norm(W, grid)


def energy_proxy(spec, h: HydroState, s: int = 2):
    """Heuristic energy monitor ||dx phi||_{H^s} + ||n||_{H^s}, per state."""
    a = _hs_norms(h.grid.diff(h.phi), h.grid, s)
    b = _hs_norms(h.n, h.grid, s)
    return np.sqrt(np.sum(np.square(a), axis=-1)) + np.sqrt(np.sum(np.square(b), axis=-1))


def limit_error(spec, micro_traj: Trajectory, kdv_traj: Trajectory) -> dict:
    """Per-time and sup-in-time L2 errors of a microscopic run against a
    limit-equation run with matched snapshot times.

    Compares the two candidate profiles — the amplitude observable 2 i lam n
    and the gradient observable (c+iB) DPhi dx(phi) — against the limit
    profile A(t), and also reports the ||W||_{L2} and ||eps phi||_{L_inf}
    time series that the convergence argument drives to zero.
    """
    eps = micro_traj.meta["eps"]
    t_micro = np.asarray(micro_traj.times)
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

    grid = micro_traj.states[0].grid
    cols = {k: [] for k in ("err_amplitude", "err_gradient", "w_norms", "eps_phi_inf",
                            "energy_proxy", "in_chart")}
    for rows, h in iter_blocks(spec, micro_traj):
        obs = observables(spec, h)
        a_limit = np.stack([kdv_traj.states[j].components for j in picks[rows]])
        cols["err_amplitude"].append(l2_norm(obs.A - a_limit, grid))
        cols["err_gradient"].append(l2_norm(obs.A + obs.W - a_limit, grid))
        cols["w_norms"].append(l2_norm(obs.W, grid))
        cols["eps_phi_inf"].append(np.max(np.abs(eps * h.phi), axis=(-2, -1)))
        cols["energy_proxy"].append(energy_proxy(spec, h))
        cols["in_chart"].append(h.valid)
    out = {"times": t_micro, **{k: np.concatenate(v) for k, v in cols.items()}}
    out.update(
        sup_err_amplitude=float(np.max(out["err_amplitude"])),
        sup_err_gradient=float(np.max(out["err_gradient"])),
        sup_w=float(np.max(out["w_norms"])),
        max_eps_phi=float(np.max(out["eps_phi_inf"])),
        chart_radius=chart_radius(spec),
    )
    return out
