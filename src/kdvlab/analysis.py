"""Solitary waves, nonlinearity fixed points, the Miura transform, and the
two-component complex parameterization of the KdV nonlinearity.

Everything here works on canonical-form models: du/dt = dxxxu - dx Q(u,u).
The solitary family is u(x,t) = c_w * q0(sqrt(c_w)(x + c_w t - x0)) * z with
q0 the decaying solution of q' - q''' + (q^2)' = 0 and z a nonzero fixed
point of Q(z,z) = z.
"""

from __future__ import annotations

import numpy as np

from .grid import Dealias, Grid, l2_norm
from .kdv import LimitModel, QTensor, _evolve_ifrk4, _pairing, bilinear_apply, evolve_kdv

__all__ = [
    "solitary_profile",
    "SolitonSpec",
    "find_fixed_point",
    "build_soliton",
    "miura_condition",
    "miura_map",
    "miura_crosscheck",
    "complex_q_d2",
]


def solitary_profile(xi):
    """The decaying solution q0 of q' - q''' + (q^2)' = 0: -(3/2) sech^2(xi/2)."""
    xi = np.asarray(xi, dtype=float)
    with np.errstate(over="ignore"):
        sech = 1.0 / np.cosh(0.5 * xi)
    return -1.5 * sech * sech


class SolitonSpec:
    """Parameters of one member of the solitary family.

    speed : wave speed c_w > 0.
    direction : d-vector z; when ``q_tensor`` is given, Q(z,z)=z is enforced
        to 1e-10 max(1, |z|^2) at construction (the bound of
        :func:`find_fixed_point`, scaled as the rounding of Q(z,z)).
    """

    def __init__(self, speed, direction, q_tensor: QTensor | None = None):
        self.speed = float(speed)
        if not self.speed > 0:
            raise ValueError(f"speed must be positive, got {speed}")
        self.direction = np.atleast_1d(np.asarray(direction, dtype=float))
        if q_tensor is not None:
            z = self.direction
            defect = np.linalg.norm(q_tensor.apply_vectors(z, z) - z)
            if defect > 1e-10 * max(1.0, z @ z):
                raise ValueError(f"direction is not a fixed point of Q: |Q(z,z)-z| = {defect:.3g}")


def _flux_jacobian(Q: QTensor, u: np.ndarray) -> np.ndarray:
    """Matrix of h -> 2 Q(u, h), the flux Jacobian (symmetric)."""
    return 2.0 * np.einsum("ijk,i->jk", Q.coeffs, u)


def find_fixed_point(Q: QTensor):
    """All distinct nonzero solutions of Q(z,z) = z, in closed form for d <= 2.

    d = 1: z = 1/q.  d = 2: a fixed point lies along a direction r with
    Q(r,r) parallel to r, a real root of the binary cubic
    r1 Q2(r,r) - r2 Q1(r,r) (r = (1, t) from ``np.roots``, and r = (0, 1) when
    the t^3 coefficient vanishes); then z = r/(Q(r,r).r) for unit r, polished
    by at most 3 Newton steps.  There are at most 2^d - 1 such roots
    (Cartwright & Sturmfels 2013).  Roots are deduplicated at distance 1e-8
    and returned sorted (by norm, then lexicographically); each satisfies
    |Q(z,z) - z| <= 1e-12 max(1, |z|^2), since the rounding of Q(z,z) grows
    as |z|^2.  d >= 3 raises ``ValueError``.
    """
    tol = 1e-12
    if Q.is_zero:
        raise ValueError("Q must be nonzero: every z solves Q(z,z)=z only for z=0")
    if Q.dim == 1:
        return [np.array([1.0 / Q.coeffs[0, 0, 0]])]
    if Q.dim != 2:
        raise ValueError(f"fixed points are computed for d <= 2 only, got d = {Q.dim}")
    q = Q.coeffs  # r1 Q2(r,r) - r2 Q1(r,r) at r = (1, t), highest power first
    cubic = np.array([-q[0, 1, 1], q[1, 1, 1] - 2.0 * q[0, 0, 1], 2.0 * q[0, 1, 1] - q[0, 0, 0],
                      q[0, 0, 1]])
    directions = [np.array([1.0, t.real]) for t in np.roots(cubic)
                  if abs(t.imag) <= 1e-8 * (1.0 + abs(t))]
    if abs(cubic[0]) <= 1e-14 * Q.norm():
        directions.append(np.array([0.0, 1.0]))
    roots, eye = [], np.eye(2)
    for r in directions:
        r = r / np.linalg.norm(r)
        scale = float(Q.apply_vectors(r, r) @ r)
        if abs(scale) <= 1e-10:  # Q(r,r) = 0: no fixed point along r
            continue
        z = r / scale
        res = Q.apply_vectors(z, z) - z
        for _ in range(3):
            if np.linalg.norm(res) <= tol * max(1.0, z @ z):
                break
            z = z - np.linalg.solve(_flux_jacobian(Q, z) - eye, res)
            res = Q.apply_vectors(z, z) - z
        if (np.linalg.norm(res) <= tol * max(1.0, z @ z)
                and all(np.linalg.norm(z - w) > 1e-8 for w in roots)):
            roots.append(z)
    if not roots:
        raise RuntimeError("no nonzero fixed point of Q(z,z)=z; the nonlinearity may be degenerate")
    roots.sort(key=lambda z: (round(float(np.linalg.norm(z)), 12), tuple(np.round(z, 12))))
    return roots


def build_soliton(spec: SolitonSpec, grid: Grid) -> np.ndarray:
    """Sample u(x) = c_w q0(sqrt(c_w)(x - x0)) z on the grid, centred
    mid-domain (x0 = L/2), as a (d, N) array.

    Raises when a sample is not finite (the wave overflows), when the profile
    tails exceed 1e-12 min(1, peak) at the point of the periodic domain
    farthest from the center (the domain is then too short for the periodic
    surrogate to represent the decaying wave), and when the sampled wave
    underflows to zero.
    """
    x0 = 0.5 * grid.length
    xi = np.sqrt(spec.speed) * (grid.x - x0)
    with np.errstate(over="ignore", invalid="ignore"):
        comps = np.outer(spec.direction, spec.speed * solitary_profile(xi))
    if not np.isfinite(comps).all():
        raise ValueError("the soliton samples are not finite")
    dist = np.abs((grid.x - x0 + 0.5 * grid.length) % grid.length - 0.5 * grid.length)
    tail = float(np.max(np.abs(comps[:, np.argmax(dist)])))
    peak = float(np.max(np.abs(comps)))
    if peak == 0 or tail > 1e-12 * min(1.0, peak):
        raise ValueError(
            f"soliton tails {tail:.3g} exceed 1e-12 min(1, peak {peak:.3g}) at the domain "
            "boundary; enlarge the grid"
        )
    return comps


# ---------------------------------------------------------------------------
# Miura transform
# ---------------------------------------------------------------------------


def miura_condition(Q: QTensor) -> float:
    """Max over basis triples of |Q(e_i, Q(e_j, e_k)) - Q(e_j, Q(e_i, e_k))|.

    Zero means the quadratic map is associative enough for the Miura
    transform (and the attendant hierarchy of conserved quantities) to apply.
    """
    c = Q.coeffs
    inner = np.einsum("jkm,imn->ijkn", c, c)  # Q(e_i, Q(e_j, e_k))
    return float(np.max(np.abs(inner - inner.transpose(1, 0, 2, 3))))


def miura_map(Q: QTensor, v: np.ndarray, grid: Grid) -> np.ndarray:
    """u = dx v + (1/3) Q(v,v) of the (d, N) samples v on ``grid``."""
    return grid.diff(v) + bilinear_apply(Q.coeffs, v, v) / 3.0


def _mkdv_nonlinear(Q: QTensor, grid: Grid):
    """dv/dt contribution -(2/3) Q(v, Q(v, dx v)) on (d, n//2+1) coefficients
    in the state convention of :func:`~kdvlab.kdv._evolve_ifrk4`, as
    ``rhs(w, out)`` writing into ``out``; the cubic term is
    dealiased by padding [v, dx v] to twice the grid (one irfft) before any
    product is formed, then truncated back (one rfft).  Its symbols are made
    once, at the shape of the coefficients, and the workspace's ``samples``
    and ``coeffs`` are bound once."""
    n = grid.n_points
    d = Q.dim
    ik = np.tile(grid.rsymbol(1), (d, 1))
    ws = Dealias(n, 2, d, 2)
    pair, q = _pairing(Q.coeffs)
    scale = (ws.fold(-2.0 / 3.0 * q * q, 3) * ws.split)[:d]
    rows, dx_rows, p, p_dx = ws.low[:d], ws.low[d:], ws.padded[:d], ws.padded[d:]
    inner, prod = np.empty((2, d, ws.m))
    samples, coeffs = ws.samples, ws.coeffs

    def rhs(w, out):
        np.copyto(rows, w)
        np.multiply(w, ik, out=dx_rows)  # ik is zero at the Nyquist mode
        samples()
        return np.multiply(scale, coeffs(pair(p, pair(p, p_dx, out=inner), out=prod)), out=out)

    return rhs


def miura_crosscheck(Q: QTensor, v0: np.ndarray, grid: Grid, T: float, dt: float,
                     n_snapshots: int = 11):
    """Sup-in-time L2 discrepancy between the two routes around the square:
    evolve v under the modified flow then map, versus map v0 then evolve
    under the KdV flow.  Both legs run the IF-RK4 loop of ``evolve_kdv``,
    which aborts on a non-finite step or a gradient blow-up.  Returns
    ``(discrepancy, aborted)``: the sup over the snapshot times both legs
    reached, and the trajectory of each leg that aborted by its name
    ("kdv", "mkdv").  Requires miura_condition(Q) <= 1e-10.
    """
    violation = miura_condition(Q)
    if violation > 1e-10:
        raise ValueError(f"Miura condition violated (defect {violation:.3g}); transform does not apply")
    model = LimitModel(Q, 1.0)
    legs = {
        "kdv": evolve_kdv(model, miura_map(Q, v0, grid), grid, T, dt, n_snapshots=n_snapshots),
        "mkdv": _evolve_ifrk4(grid.rsymbol(3), _mkdv_nonlinear(Q, grid), v0, grid, T, dt,
                              n_snapshots, 1),
    }
    kdv_at = {round(t, 10): u for t, u in zip(legs["kdv"].times, legs["kdv"].meta["snapshots"])}
    worst = max(l2_norm(miura_map(Q, v, grid) - kdv_at[round(t, 10)], grid)
                for t, v in zip(legs["mkdv"].times, legs["mkdv"].meta["snapshots"])
                if round(t, 10) in kdv_at)
    return worst, {name: traj for name, traj in legs.items() if traj.aborted}


def complex_q_d2(alpha: complex, beta: complex) -> QTensor:
    """The two-component family Q(x,y) = a xy + b conj(xy) + conj(a)(conj(x)y
    + x conj(y)) under the identification of the plane with the complex line.

    The result is a real 2x2x2 QTensor; full symmetry holds by construction
    and is re-verified by the QTensor constructor (defect recorded, checked
    relative to the largest coefficient).
    """
    alpha = complex(alpha)
    beta = complex(beta)
    basis = (1.0 + 0.0j, 1.0j)

    def q_complex(x, y):
        return alpha * x * y + beta * np.conj(x * y) + np.conj(alpha) * (np.conj(x) * y + x * np.conj(y))

    coeffs = np.zeros((2, 2, 2))
    for i, x in enumerate(basis):
        for j, y in enumerate(basis):
            val = q_complex(x, y)
            coeffs[i, j, 0] = val.real
            coeffs[i, j, 1] = val.imag
    q = QTensor(coeffs)
    if q.symmetry_defect > 1e-13 * max(1.0, q.norm()):
        raise AssertionError(
            f"complex parameterization produced an asymmetric tensor (defect {q.symmetry_defect:.3g})"
        )
    return q
