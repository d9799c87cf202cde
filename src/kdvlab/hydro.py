"""Phase/amplitude diagnostics connecting microscopic runs to the limit flow.

The microscopic fields are re-expressed in the chart coordinates (phi, n) —
a phase-like tangential coordinate and a normal amplitude.  On top of that
live the limit observables

    W = (c + iB) DPhi dx(phi) - 2 i lam n      (vanishes in the limit)
    A = 2 i lam n                              (the limiting profile)
    U = (c - iB) DPhi dx(phi) + A              (the complementary combination)

expressed throughout in the tangent-frame coordinates of the model chart,
plus an almost-conserved energy functional, residuals of the truncated
first-order system satisfied by (phi, n), and the error measures that
compare a microscopic trajectory against a limit-equation trajectory.
"""

from __future__ import annotations

import numpy as np

from .grid import Field, Trajectory, hs_seminorms, integrate, l2_norm
from .micro import MicroState
from .models import (
    chart_assemble,
    chart_extract,
    chart_radius,
    dphi_matrix,
    normal_coupling,
)

_RESIDUAL_KINDS = ("GP_SCALAR", "LL_EASY_PLANE")


class HydroState:
    """Chart coordinates of a microscopic state.

    ``phi`` and ``n`` are real (d, N) Fields; ``valid`` records whether the
    state lies inside the chart (radial/tilt range and zero winding), with
    diagnostic extremes in ``info``.
    """

    def __init__(self, grid, eps: float, phi: Field, n: Field, valid: bool, info=None):
        self.grid = grid
        self.eps = float(eps)
        self.phi = phi
        self.n = n
        self.valid = bool(valid)
        self.info = dict(info or {})

    def copy(self):
        return HydroState(self.grid, self.eps, self.phi.copy(), self.n.copy(),
                          self.valid, self.info)


class Observables:
    """The three limit observables of a chart state, as coordinate Fields."""

    def __init__(self, W: Field, U: Field, A: Field):
        self.W = W
        self.U = U
        self.A = A


def extract_hydro(spec, s: MicroState, phase_ref=None) -> HydroState:
    """Chart coordinates of a microscopic state.

    ``phase_ref`` (a previous phi array) selects the phase branch closest to
    it, for continuity across snapshots of a trajectory.
    """
    phi, n, info = chart_extract(spec, s.values, s.eps, phase_ref=phase_ref)
    return HydroState(
        s.grid,
        s.eps,
        Field(s.grid, phi, validate=False),
        Field(s.grid, n, validate=False),
        info["in_chart"],
        info,
    )


def reconstruct_micro(spec, h: HydroState) -> MicroState:
    """Microscopic state with the given chart coordinates (inverse of
    extract_hydro on valid states)."""
    vals = chart_assemble(spec, h.phi.components, h.n.components, h.eps)
    return MicroState(spec, h.grid, h.eps, vals, validate=False)


def extract_series(spec, traj: Trajectory) -> list[HydroState]:
    """Chart coordinates of every snapshot, phase-continuous along the run."""
    out = []
    ref = None
    for state in traj.states:
        h = extract_hydro(spec, state, phase_ref=ref)
        out.append(h)
        ref = h.phi.components
    return out


def _tangent_gradient(spec, h: HydroState) -> np.ndarray:
    """Tangent-frame coordinates DPhi dx(phi) of a chart state, (d, N)."""
    dphi = h.grid.diff(h.phi.components)
    if spec.kind != "AF_CHAIN":  # DPhi is the identity on the circle charts
        return dphi
    J = dphi_matrix(spec, h.phi.components, h.eps)
    return np.einsum("ijN,jN->iN", J, dphi)


def observables(spec, h: HydroState) -> Observables:
    """Limit observables W, U, A of a chart state.

    The coordinates satisfy DPhi dx(phi) = (U + W)/(2c) and
    A = ((c+iB)U - (c-iB)W)/(2c) identically.
    """
    g = spec.geometry
    C = normal_coupling(spec)
    X = _tangent_gradient(spec, h)
    A = -2.0 * g.lam * (C.T @ h.n.components)
    plus = g.c * X + np.einsum("ij,jN->iN", g.i0b0, X)
    minus = g.c * X - np.einsum("ij,jN->iN", g.i0b0, X)
    return Observables(
        W=Field(h.grid, plus - A, validate=False),
        U=Field(h.grid, minus + A, validate=False),
        A=Field(h.grid, A, validate=False),
    )


def _s0_correction(spec, X: np.ndarray, n: np.ndarray) -> np.ndarray:
    """Coordinate form of the shape-operator correction II(., n) applied to a
    tangent coordinate field: the O(eps^2) part of S0 X."""
    g = spec.geometry
    Cn = normal_coupling(spec).T @ n
    return np.einsum("ijm,iN,mN->jN", g.ii_perp, X, Cn)


def almost_hamiltonian(spec, h: HydroState):
    """Almost-conserved energy of a chart state.

    Returns ``(H, leading)`` where

        H = int [ lam |n|^2 + (1/4)|eps^2 dx n|^2 + (eps^2/3) F1(n,n).n
                  + (1/4)|S0 DPhi dx(phi)|^2
                  + (c+iB)(DPhi dx(phi) + (eps^2/2) II(DPhi dx(phi), n)) . Cn ]

    with S0 = Id + eps^2 II(., n), and ``leading`` is ||W||^2/(4 lam), which
    H matches up to O(eps^2).  Along a microscopic run H drifts by O(eps).
    """
    g = spec.geometry
    eps = h.eps
    C = normal_coupling(spec)
    n = h.n.components
    grid = h.grid
    dn = grid.diff(n)
    X = _tangent_gradient(spec, h)
    corr = _s0_correction(spec, X, n)
    s0x = X + eps**2 * corr
    Cn = C.T @ n
    f1_nu = -np.einsum("ijm,mk->ijk", g.f1, C)
    cubic = np.einsum("ijk,iN,jN,kN->N", f1_nu, n, n, n)
    half = X + 0.5 * eps**2 * corr
    cross_vec = g.c * half + np.einsum("ij,jN->iN", g.i0b0, half)
    density = (
        g.lam * np.sum(n**2, axis=0)
        + 0.25 * eps**4 * np.sum(dn**2, axis=0)
        + (eps**2 / 3.0) * cubic
        + 0.25 * np.sum(s0x**2, axis=0)
        + np.sum(cross_vec * Cn, axis=0)
    )
    W = g.c * X + np.einsum("ij,jN->iN", g.i0b0, X) + 2.0 * g.lam * Cn
    leading = l2_norm(W, grid) ** 2 / (4.0 * g.lam)
    return float(integrate(density, grid)), leading


def energy_proxy(spec, h: HydroState, s: int = 2) -> float:
    """Heuristic energy monitor ||dx phi||_{H^s} + ||n||_{H^s}."""
    dphi = h.grid.diff(h.phi.components)
    a = hs_seminorms(Field(h.grid, dphi, validate=False), s)
    b = hs_seminorms(h.n, s)
    return float(np.sqrt(np.sum(np.square(a))) + np.sqrt(np.sum(np.square(b))))


def _triplet(spec, traj: Trajectory, idx: int):
    """(previous, current, next) chart states around snapshot ``idx``, with a
    common phase branch, or None when a neighbor is missing."""
    if traj.neighbors is None or traj.neighbors[idx] is None:
        return None
    prev_vals, next_vals = traj.neighbors[idx]
    if prev_vals is None or next_vals is None:
        return None
    state = traj.states[idx]
    cur = extract_hydro(spec, state)
    ref = cur.phi.components
    eps = state.eps
    phi_p, n_p, info_p = chart_extract(spec, prev_vals, eps, phase_ref=ref)
    phi_n, n_n, info_n = chart_extract(spec, next_vals, eps, phase_ref=ref)
    if not (cur.valid and info_p["in_chart"] and info_n["in_chart"]):
        return None
    return (phi_p, n_p), cur, (phi_n, n_n)


def hydro_residual(spec, traj: Trajectory, ablate_singular: bool = False) -> dict:
    """L2 residuals of the truncated first-order system along a run.

    Evaluates, at every snapshot with stored step neighbors, both lines of
    the order-one system satisfied by (phi, n) — time derivatives by centered
    differencing of the neighbor states — and reports the L2 norm of each
    line.  On exact solutions the residual is O(eps^2); with
    ``ablate_singular`` the singular 1/eps^2 transport blocks are dropped,
    which must inflate the residual by orders of magnitude (wiring check).

    Supported for the scalar condensate and the easy-plane spin chain, whose
    charts make the truncated system scalar and explicit.
    """
    if spec.kind not in _RESIDUAL_KINDS:
        raise ValueError(
            f"hydro residual not supported for {spec.kind}; "
            f"supported kinds: {_RESIDUAL_KINDS}"
        )
    g = spec.geometry
    eps = traj.meta["eps"]
    dt = traj.dt
    grid = traj.states[0].grid
    dx = grid.diff
    times, r1_norms, r2_norms = [], [], []
    for idx in range(len(traj.states)):
        trip = _triplet(spec, traj, idx)
        if trip is None:
            continue
        (phi_p, n_p), cur, (phi_n, n_n) = trip
        phi = cur.phi.components[0]
        n = cur.n.components[0]
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
        raise ValueError("no snapshot with both step neighbors is available")
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
    picks = []
    for t in t_micro:
        j = int(np.argmin(np.abs(t_kdv - t)))
        if abs(t_kdv[j] - t) > tol:
            raise ValueError(
                f"time grids do not match: micro snapshot t={t} has no "
                f"limit-run counterpart (nearest {t_kdv[j]})"
            )
        picks.append(j)

    grid = micro_traj.states[0].grid
    series = extract_series(spec, micro_traj)
    err_amp, err_grad, w_norms, phi_inf, proxy, valid = [], [], [], [], [], []
    for h, j in zip(series, picks):
        obs = observables(spec, h)
        a_limit = kdv_traj.states[j].components
        err_amp.append(l2_norm(obs.A.components - a_limit, grid))
        err_grad.append(l2_norm(obs.A.components + obs.W.components - a_limit, grid))
        w_norms.append(l2_norm(obs.W.components, grid))
        phi_inf.append(float(np.max(np.abs(eps * h.phi.components))))
        proxy.append(energy_proxy(spec, h))
        valid.append(h.valid)
    return {
        "times": t_micro,
        "err_amplitude": np.array(err_amp),
        "err_gradient": np.array(err_grad),
        "w_norms": np.array(w_norms),
        "eps_phi_inf": np.array(phi_inf),
        "energy_proxy": np.array(proxy),
        "in_chart": np.array(valid, dtype=bool),
        "sup_err_amplitude": float(np.max(err_amp)),
        "sup_err_gradient": float(np.max(err_grad)),
        "sup_w": float(np.max(w_norms)),
        "max_eps_phi": float(np.max(phi_inf)),
        "chart_radius": chart_radius(spec),
    }
