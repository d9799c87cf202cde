"""Concrete model geometries and the assembly of their long-wave limits.

Each preset packages the constant geometric data of one microscopic model at
its reference point (Hessian constant ``lam``, first-order constant ``mu``,
sound speed ``c = sqrt(lam - mu)``, and the coefficient tensors feeding the
limit nonlinearity) together with a descriptor of the microscopic equation
itself.  ``limit_equation`` turns the geometry's limit

    2c dA/dt = (1/4) dxxx A + M . ii_perp(dxA, A) - (1/(2 lam)) f1(dxA, A),
    M = (3/2 - 2 mu/lam) Id - (2c/lam) i0B0,

into its canonical form, a :class:`~kdvlab.kdv.LimitModel` that carries the
rescaling back to A.

The chart helpers (:func:`chart_assemble` / :func:`chart_extract`) realize the
generalized Madelung parameterization u = Psi(Phi(eps*phi), eps^2 n) of each
model as plain array maps; the microscopic and hydrodynamic layers build on
them.
"""

from __future__ import annotations

import numpy as np

from .kdv import LimitModel, QTensor

__all__ = [
    "GeometryData",
    "MicroModelSpec",
    "KINDS",
    "preset",
    "limit_tensor",
    "limit_equation",
    "chart_assemble",
    "chart_extract",
    "chart_radius",
    "normal_coupling",
    "dphi_matrix",
]

KINDS = ("GP_SCALAR", "GP_COUPLED", "LL_EASY_PLANE", "LL_EASY_CONE", "AF_CHAIN")

_SYM_TOL = 1e-12
_MODULUS_RANGE = (0.5, 1.5)  # the condensate chart's |u|: out of it a run aborts


class GeometryData:
    """Constant geometric data of a model at its reference point.

    Parameters
    ----------
    dim : int
        dimension d of the tangent space the limit profile lives in.
    lam : float
        Hessian constant of the confining potential (> 0).
    mu : float
        first-order coupling constant, 0 <= mu < lam.
    i0b0 : (d,d) array, optional
        matrix of i0.B0 acting on tangent coordinates (zero if omitted).
    ii_perp : (d,d,d) array, optional
        coordinates of i0.II_perp(e_i, e_j) in the tangent basis;
        must be symmetric in (i,j) and, for each fixed j, in (i,k).
    f1 : (d,d,d) array, optional
        coordinates of i0.F1(i0 e_i, i0 e_j) in the tangent basis;
        must be symmetric in (i,j).
    label : str
        human-readable tag for reports.

    The sound speed ``c = sqrt(lam - mu)`` is derived, never supplied.
    """

    def __init__(self, dim, lam, mu=0.0, i0b0=None, ii_perp=None, f1=None, label="custom"):
        self.dim = int(dim)
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.lam = float(lam)
        self.mu = float(mu)
        if not self.lam > 0:
            raise ValueError(f"lam must be positive, got {lam}")
        if self.mu < 0 or self.mu >= self.lam:
            raise ValueError(f"mu must satisfy 0 <= mu < lam, got mu={mu}, lam={lam}")
        self.c = float(np.sqrt(self.lam - self.mu))
        d = self.dim
        self.i0b0 = self._as_array(i0b0, (d, d), "i0b0")
        self.ii_perp = self._as_array(ii_perp, (d, d, d), "ii_perp")
        self.f1 = self._as_array(f1, (d, d, d), "f1")
        self.label = str(label)
        self._validate_tensors()

    @staticmethod
    def _as_array(value, shape, name):
        if value is None:
            return np.zeros(shape)
        arr = np.asarray(value, dtype=float)
        if arr.shape != shape:
            raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} must be finite")
        return arr

    def _validate_tensors(self):
        ii = self.ii_perp
        defect = np.max(np.abs(ii - ii.transpose(1, 0, 2)))
        if defect > _SYM_TOL:
            raise ValueError(f"ii_perp must be symmetric in its two arguments (defect {defect:.3g})")
        # the composed map i0.II_perp(., e_j) is a symmetric matrix for each j
        defect = np.max(np.abs(ii - ii.transpose(2, 1, 0)))
        if defect > _SYM_TOL:
            raise ValueError(
                f"ii_perp must give a symmetric matrix (i,k) for each fixed argument (defect {defect:.3g})"
            )
        defect = np.max(np.abs(self.f1 - self.f1.transpose(1, 0, 2)))
        if defect > _SYM_TOL:
            raise ValueError(f"f1 must be symmetric in its two arguments (defect {defect:.3g})")

    def __repr__(self):
        return (
            f"GeometryData({self.label!r}, dim={self.dim}, lam={self.lam}, "
            f"mu={self.mu}, c={self.c})"
        )


class MicroModelSpec:
    """Descriptor of a microscopic model: which equation, with which parameters.

    Specs built by :func:`preset` carry the model's :class:`GeometryData` as
    ``geometry``.
    """

    def __init__(self, kind: str, params: dict | None = None):
        kind = str(kind).upper()
        if kind not in KINDS:
            raise ValueError(f"unknown model kind {kind!r}; expected one of {KINDS}")
        self.kind = kind
        self.params = dict(params or {})

    @property
    def is_complex(self) -> bool:
        return self.kind in ("GP_SCALAR", "GP_COUPLED")

    @property
    def n_components(self) -> int:
        """Number of state rows in the microscopic field array."""
        return {
            "GP_SCALAR": 1,
            "GP_COUPLED": 2,
            "LL_EASY_PLANE": 3,
            "LL_EASY_CONE": 3,
            "AF_CHAIN": 6,
        }[self.kind]

    def __repr__(self):
        return f"MicroModelSpec({self.kind}, {self.params})"


def _coupled_f1(lam: float, gamma: float) -> np.ndarray:
    """Cubic-potential tensor of the two-component condensate with well depths
    lam and cross-coupling gamma: the potential

        V(u) = (lam/4) * sum_k (1-|u_k|^2)^2 + gamma * (1-|u_1|^2)^2 (1-|u_2|^2)

    expands along the minimum torus as lam|n|^2 + V1(n) + O(|n|^4) with
    V1(n) = lam(n_1^3+n_2^3) - 8 gamma n_1^2 n_2, and f1 is the symmetric
    bilinear with f1(n,n) = grad V1(n)."""
    f1 = np.zeros((2, 2, 2))
    f1[0, 0, 0] = 3.0 * lam
    f1[1, 1, 1] = 3.0 * lam
    f1[0, 0, 1] = f1[0, 1, 0] = f1[1, 0, 0] = -8.0 * gamma
    return f1


def preset(kind: str, params: dict | None = None):
    """Build (GeometryData, MicroModelSpec) for a named model.

    Kinds and parameters:
      - GP_SCALAR: no parameters.
      - GP_COUPLED: lam > 0 (default 1), gamma (default 0).
      - LL_EASY_PLANE: k > 0 (default 1), the easy-plane anisotropy constant.
      - LL_EASY_CONE: alpha > 0, theta0 in (0, pi) required; beta (default 0).
      - AF_CHAIN: no parameters.
    """
    spec = MicroModelSpec(kind, params)
    p = spec.params
    kind = spec.kind

    if kind == "GP_SCALAR":
        _reject_unknown(p, ())
        geom = GeometryData(
            1, lam=1.0, mu=0.0, ii_perp=[[[-1.0]]], f1=[[[3.0]]], label="gp_scalar"
        )
    elif kind == "GP_COUPLED":
        _reject_unknown(p, ("lam", "gamma"))
        lam = float(p.setdefault("lam", 1.0))
        gamma = float(p.setdefault("gamma", 0.0))
        if lam <= 0:
            raise ValueError(f"GP_COUPLED requires lam > 0, got {lam}")
        ii = np.zeros((2, 2, 2))
        for k in range(2):
            ii[k, k, k] = -1.0
        geom = GeometryData(
            2, lam=lam, mu=0.0, ii_perp=ii, f1=_coupled_f1(lam, gamma), label="gp_coupled"
        )
    elif kind == "LL_EASY_PLANE":
        _reject_unknown(p, ("k",))
        k = float(p.setdefault("k", 1.0))
        if k <= 0:
            raise ValueError(f"LL_EASY_PLANE requires k > 0, got {k}")
        geom = GeometryData(1, lam=k, mu=0.0, label="ll_easy_plane")
    elif kind == "LL_EASY_CONE":
        _reject_unknown(p, ("alpha", "beta", "theta0"))
        try:
            alpha = float(p["alpha"])
            theta0 = float(p["theta0"])
        except KeyError as exc:
            raise ValueError(f"LL_EASY_CONE requires parameter {exc.args[0]!r}") from None
        beta = float(p.setdefault("beta", 0.0))
        if alpha <= 0:
            raise ValueError(f"LL_EASY_CONE requires alpha > 0, got {alpha}")
        if not 0.0 < theta0 < np.pi:
            raise ValueError(f"LL_EASY_CONE requires theta0 in (0, pi), got {theta0}")
        s, co = np.sin(theta0), np.cos(theta0)
        lam = alpha * s * s
        b = alpha * s * co + beta * s**3
        geom = GeometryData(
            1,
            lam=lam,
            mu=0.0,
            ii_perp=[[[co / s]]],
            f1=[[[-3.0 * b]]],
            label="ll_easy_cone",
        )
    elif kind == "AF_CHAIN":
        _reject_unknown(p, ())
        geom = GeometryData(
            2, lam=2.0, mu=1.0, i0b0=[[0.0, -1.0], [1.0, 0.0]], label="af_chain"
        )
    else:  # pragma: no cover - guarded by MicroModelSpec
        raise ValueError(kind)
    spec.geometry = geom
    return geom, spec


def _reject_unknown(params: dict, allowed):
    unknown = set(params) - set(allowed)
    if unknown:
        raise ValueError(f"unknown parameters {sorted(unknown)}; allowed: {sorted(allowed)}")


def limit_tensor(geom: GeometryData) -> np.ndarray:
    """The bilinear tensor G of the geometry's limit

        2c dA/dt = (1/4) dxxxA + G(dxA, A),
        G[i,j,k] = sum_m M[k,m] ii_perp[i,j,m] - f1[i,j,k] / (2 lam),
        M = (3/2 - 2 mu/lam) Id - (2c/lam) i0B0.
    """
    lam, mu, c, d = geom.lam, geom.mu, geom.c, geom.dim
    M = (1.5 - 2.0 * mu / lam) * np.eye(d) - (2.0 * c / lam) * geom.i0b0
    return np.einsum("km,ijm->ijk", M, geom.ii_perp) - geom.f1 / (2.0 * lam)


def limit_equation(geom: GeometryData) -> LimitModel:
    """The limit model of a geometry in canonical form.

    With G from :func:`limit_tensor`, u(tau, x) = s*A(8c tau, x) solves
    du/dtau = dxxxu - dx Q(u,u) with Q = -(2/s) sym(G), sym the symmetrization
    in (i,j) and s = -2 max|sym(G)| (1 for a linear limit); the model's
    ``scale`` is {"time_factor": 8c, "amplitude": s}.  A ``ValueError`` ("no
    canonical form") is raised when G has no conservative rewrite: when its
    part antisymmetric in (i,j) does not vanish (G(dxA,A) is then not a total
    x-derivative) or Q is not fully symmetric (Q(u,u) is then not the
    gradient of a cubic, and the Hamiltonian does not exist).
    """
    G = limit_tensor(geom)
    sym = 0.5 * (G + G.transpose(1, 0, 2))
    smax = float(np.max(np.abs(sym)))
    s = -2.0 * smax if smax > 0 else 1.0
    Q = QTensor(-(2.0 / s) * sym)
    anti = float(np.max(np.abs(G - sym)))
    if anti > _SYM_TOL or Q.symmetry_defect > _SYM_TOL:
        raise ValueError(
            f"{geom.label}: the limit nonlinearity has no canonical form (part of G "
            f"antisymmetric in its arguments {anti:.3g}, symmetry defect of Q "
            f"{Q.symmetry_defect:.3g})"
        )
    return LimitModel(Q, 1.0, scale={"time_factor": 8.0 * geom.c, "amplitude": s})


# ---------------------------------------------------------------------------
# charts: u = Psi(Phi(eps*phi), eps^2 n) as plain array maps
# ---------------------------------------------------------------------------


def chart_radius(spec: MicroModelSpec) -> float:
    """Sup-norm bound on eps*phi within which the phase chart stays injective."""
    if spec.kind == "LL_EASY_CONE":
        return float(np.pi * np.sin(float(spec.params["theta0"])))
    if spec.kind == "AF_CHAIN":
        return float(np.pi * np.sqrt(2.0))
    return float(np.pi)


def normal_coupling(spec: MicroModelSpec) -> float:
    """Sign s with i0 tau_a = s nu_a for the chart's frames.

    tau is the tangent frame underlying the phase coordinates and nu the
    normal frame underlying n; in every family the normal frame is the
    tangent frame turned by i0, up to this sign (e.g. the profile observable
    is A = -2 lam s n in tangent coordinates).  i0 is the factor of the micro
    equation's dispersive term: i, Gamma x, and -Gamma x per sublattice for
    the antiferromagnet (opposite exchange sign).
    """
    return 1.0 if spec.kind in ("LL_EASY_PLANE", "LL_EASY_CONE") else -1.0


def _unwrap_periodic(raw: np.ndarray):
    """Unwrap angles along the last axis and report the winding number of the
    periodic closure (nonzero winding means the state is not chart-valued).

    The unwrapped angles are those of ``np.unwrap(raw, axis=-1)``, bit for
    bit.  Only the rows with a jump (a difference d with |d| >= pi, or NaN)
    go through ``np.unwrap``; a row without one, the usual case for a state
    in its chart, gets raw + 0.0 (-0.0 becomes +0.0) with its first sample
    kept as it is.  The jump test is reduced per row before the result is
    allocated, so the full-size differences are gone by then.  The result is
    C-contiguous whatever the layout of ``raw``.
    """
    n = raw.shape[-1]
    dd = raw[..., 1:] - raw[..., :-1]
    jump = ~(np.abs(dd, out=dd) < np.pi).all(axis=-1)
    del dd
    unwrapped = np.add(raw, 0.0, order="C")
    unwrapped[..., 0] = raw[..., 0]
    if jump.any():
        rows = np.flatnonzero(jump)
        unwrapped.reshape(-1, n)[rows] = np.unwrap(np.reshape(raw, (-1, n))[rows], axis=-1)
    closure = unwrapped[..., -1] - unwrapped[..., 0]
    seam = np.angle(np.exp(1j * (raw[..., 0] - raw[..., -1])))
    winding = np.rint((closure + seam) / (2.0 * np.pi)).astype(int)
    return unwrapped, winding


def _apply_phase_ref(eps_phi: np.ndarray, phase_ref, eps: float, period: float):
    """Shift eps*phi in place, of one state (d, N) or of snapshots (S, d, N),
    by whole periods so that the phase stays continuous along the run.

    Each snapshot's component means are brought closest to those of the
    snapshot before it (after that one's own shift), the first snapshot's to
    ``phase_ref`` (a previous phi array) when given.  The shifts are exact
    integer multiples of ``period``: the whole turns between consecutive
    means, accumulated along the snapshot axis.
    """
    d = eps_phi.shape[-2]
    means = np.mean(eps_phi, axis=-1).reshape(-1, d)
    turns = np.zeros_like(means)
    turns[1:] = np.rint((means[:-1] - means[1:]) / period)
    if phase_ref is not None:
        ref = np.asarray(phase_ref, dtype=float) * eps
        turns[0] = np.rint((np.mean(np.atleast_2d(ref), axis=-1) - means[0]) / period)
    shift = period * np.cumsum(turns, axis=0)
    eps_phi += shift.reshape(eps_phi.shape[:-1] + (1,))
    return eps_phi


def chart_assemble(spec: MicroModelSpec, phi: np.ndarray, n: np.ndarray, eps: float) -> np.ndarray:
    """Microscopic state from chart coordinates phi, n of shape (dim, N)."""
    phi = np.atleast_2d(np.asarray(phi, dtype=float))
    n = np.atleast_2d(np.asarray(n, dtype=float))
    d = spec.geometry.dim
    if phi.shape != n.shape or phi.shape[0] != d:
        raise ValueError(f"phi and n must both have shape ({d}, N), got {phi.shape}, {n.shape}")
    kind = spec.kind
    if spec.is_complex:
        return (1.0 + eps**2 * n) * np.exp(1j * eps * phi)
    if kind == "LL_EASY_PLANE":
        az = eps * phi[0]
        tilt = eps**2 * n[0]
        return np.stack([np.cos(tilt) * np.cos(az), np.cos(tilt) * np.sin(az), np.sin(tilt)])
    if kind == "LL_EASY_CONE":
        theta0 = float(spec.params["theta0"])
        az = -eps * phi[0] / np.sin(theta0)
        theta = theta0 + eps**2 * n[0]
        return np.stack([np.sin(theta) * np.cos(az), np.sin(theta) * np.sin(az), np.cos(theta)])
    if kind == "AF_CHAIN":
        return _af_assemble(phi, n, eps)
    raise ValueError(kind)  # pragma: no cover


def chart_extract(spec: MicroModelSpec, state: np.ndarray, eps: float, phase_ref=None):
    """Chart coordinates (phi, n, in_chart) of a microscopic state (m, N), or
    of a run of snapshots (S, m, N) at once; phi and n are (..., d, N).

    ``in_chart`` is a boolean per state (radial/tilt range and zero winding;
    :func:`_unwrap_periodic` gives the winding of each row).  The phase
    branch is continued along the snapshot axis, and ``phase_ref`` (a
    previous phi array) selects the branch of the first snapshot that stays
    closest to it, for continuity across calls.
    """
    state = np.asarray(state)
    kind = spec.kind
    if spec.is_complex:
        r = np.abs(state)
        eps_phi, winding = _unwrap_periodic(np.angle(state))
        eps_phi = _apply_phase_ref(eps_phi, phase_ref, eps, 2.0 * np.pi)
        lo, hi = _MODULUS_RANGE
        in_chart = np.all((r >= lo) & (r <= hi), axis=(-2, -1)) & np.all(winding == 0, axis=-1)
        r -= 1.0  # in place: r becomes n, eps_phi becomes phi
        r /= eps**2
        eps_phi /= eps
        return eps_phi, r, in_chart
    if kind == "LL_EASY_PLANE":
        tilt = np.arcsin(np.clip(state[..., 2, :], -1.0, 1.0))
        eps_phi, winding = _unwrap_periodic(np.arctan2(state[..., 1, :], state[..., 0, :]))
        eps_phi = _apply_phase_ref(eps_phi[..., None, :], phase_ref, eps, 2.0 * np.pi)
        in_chart = (np.max(np.abs(tilt), axis=-1) < 0.5 * np.pi * (1.0 - 1e-9)) & (winding == 0)
        return eps_phi / eps, (tilt / eps**2)[..., None, :], in_chart
    if kind == "LL_EASY_CONE":
        theta0 = float(spec.params["theta0"])
        theta = np.arccos(np.clip(state[..., 2, :], -1.0, 1.0))
        az, winding = _unwrap_periodic(np.arctan2(state[..., 1, :], state[..., 0, :]))
        eps_phi = _apply_phase_ref(-np.sin(theta0) * az[..., None, :], phase_ref, eps,
                                   2.0 * np.pi * np.sin(theta0))
        in_chart = ((np.min(theta, axis=-1) > 1e-9) & (np.max(theta, axis=-1) < np.pi * (1.0 - 1e-9))
                    & (winding == 0))
        n = ((theta - theta0) / eps**2)[..., None, :]
        return eps_phi / eps, n, in_chart
    if kind == "AF_CHAIN":
        return _af_extract(state, eps)
    raise ValueError(kind)  # pragma: no cover


def dphi_matrix(phi: np.ndarray, eps: float) -> np.ndarray:
    """Coordinate matrix of D(Phi) at eps*phi in the transported frames of the
    antiferromagnet's two-sphere chart, shape (..., 2, 2, N) for phi
    (..., 2, N): the radial direction is kept and the transverse one picks
    up the Jacobi factor sin(r)/r, r = eps|phi|/sqrt(2).  On the
    circle-valued charts of the other families D(Phi) is the identity."""
    phi = np.atleast_2d(np.asarray(phi, dtype=float))
    eye = np.eye(2)[:, :, None]
    norm = np.sqrt(np.sum(phi**2, axis=-2))
    jac = np.sinc(eps * norm / np.sqrt(2.0) / np.pi)
    hat = phi / np.where(norm > 0, norm, 1.0)[..., None, :]
    outer = hat[..., :, None, :] * hat[..., None, :, :]
    return outer + jac[..., None, None, :] * (eye - outer)


# -- sphere helpers (points and tangent vectors along axis -2) ---------------


def _sph_exp(base: np.ndarray, tan: np.ndarray) -> np.ndarray:
    r = np.sqrt(np.sum(tan**2, axis=-2, keepdims=True))
    return np.cos(r) * base + np.sinc(r / np.pi) * tan


def _sph_log(base: np.ndarray, point: np.ndarray) -> np.ndarray:
    ct = np.clip(np.sum(base * point, axis=-2, keepdims=True), -1.0, 1.0)
    perp = ct * base
    np.subtract(point, perp, out=perp)
    s = np.sqrt(np.sum(perp**2, axis=-2, keepdims=True))
    # atan2 keeps the geodesic distance at full precision near zero
    # separation, where arccos(ct) would lose half the digits
    theta = np.arctan2(s, ct)
    perp *= np.where(s > 1e-14, theta / np.where(s > 1e-14, s, 1.0), 1.0)
    return perp


def _sph_transport(a: np.ndarray, b: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Parallel transport of tangent vector w from a to b along the geodesic."""
    denom = 1.0 + np.sum(a * b, axis=-2, keepdims=True)
    coef = np.sum(w * b, axis=-2, keepdims=True) / denom
    out = a + b
    out *= coef
    return np.subtract(w, out, out=out)


_AF_BASE = np.array([1.0, 0.0, 0.0])[:, None]
_AF_E2 = np.array([0.0, 1.0, 0.0])[:, None]
_AF_E3 = np.array([0.0, 0.0, 1.0])[:, None]


def _af_assemble(phi: np.ndarray, n: np.ndarray, eps: float) -> np.ndarray:
    Z = (eps / np.sqrt(2.0)) * (phi[0] * _AF_E2 + phi[1] * _AF_E3)
    omega = _sph_exp(_AF_BASE, Z)
    f2 = _sph_transport(_AF_BASE, omega, _AF_E2)
    f3 = _sph_transport(_AF_BASE, omega, _AF_E3)
    Y = (eps**2 / np.sqrt(2.0)) * (n[0] * f3 - n[1] * f2)
    u = _sph_exp(omega, Y)
    v = -_sph_exp(omega, -Y)
    return np.concatenate([u, v], axis=0)


def _af_extract(state: np.ndarray, eps: float):
    # the (S, 3, N) arrays of a block are made in place, few at a time: the
    # midpoint direction omega, Z until eps_phi and the chart distance are
    # read off it, then Y and each transported frame vector in turn
    u, v = state[..., :3, :], state[..., 3:, :]
    omega = u - v
    mid_norm = np.sqrt(np.sum(omega**2, axis=-2, keepdims=True))
    omega /= np.where(mid_norm > 1e-14, mid_norm, 1.0)
    Z = _sph_log(_AF_BASE, omega)
    eps_phi = np.sqrt(2.0) * np.stack([np.sum(Z * _AF_E2, axis=-2), np.sum(Z * _AF_E3, axis=-2)], axis=-2)
    eps_phi /= eps
    dist = np.sqrt(np.sum(Z**2, axis=-2))
    del Z
    Y = _sph_log(omega, u)
    f3 = _sph_transport(_AF_BASE, omega, _AF_E3)
    n3 = np.sum(np.multiply(Y, f3, out=f3), axis=-2)
    del f3
    f2 = _sph_transport(_AF_BASE, omega, _AF_E2)
    n = np.stack([n3, -np.sum(np.multiply(Y, f2, out=f2), axis=-2)], axis=-2)
    n *= np.sqrt(2.0) / eps**2
    in_chart = (np.min(mid_norm, axis=(-2, -1)) > 1e-6) & (np.max(dist, axis=-1) < np.pi * (1.0 - 1e-9))
    return eps_phi, n, in_chart
