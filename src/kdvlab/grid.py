"""Periodic grid, Fourier differentiation, norms, and generic time-stepping kernels.

Everything downstream (KdV solvers, microscopic models, diagnostics) works on a
uniform periodic grid [0, L) with N points and uses the FFT for derivatives,
so this module is the single home for that plumbing.
"""

from __future__ import annotations

import cmath
import itertools
import math

import numpy as np

__all__ = [
    "Grid",
    "Trajectory",
    "rk4_factors",
    "rk4_step",
    "ifrk4_factors",
    "ifrk4_step",
    "snapshot_steps",
    "step_plan",
    "SNAPSHOT_BLOCK",
    "integrate",
    "l2_norm",
    "Dealias",
    "fourier_shift",
]


# The one transform layer, along the last axis: on numpy >= 2.0 the gufuncs
# behind numpy.fft with its scales (1 forward, 1/n inverse), bit-identical
# without its per-call wrapper, which costs as much as a 256-point transform.
# A step kernel binds its transforms once per run with _transform and calls
# them into its own buffers (only the complex split step binds fft/ifft);
# one-off transforms of real samples call _rfft and _irfft, which bind one
# and call it into a new array.  ``_POCKETFFT`` is read only by _transform,
# so it can be swapped (to count calls, or for the fallback) before a run is
# built; no other module touches it or the scales.
try:
    from numpy.fft import _pocketfft_umath as _POCKETFFT
except ImportError:  # numpy < 2.0: through numpy.fft
    _POCKETFFT = None
if not all(hasattr(_POCKETFFT, f) for f in ("rfft_n_even", "rfft_n_odd", "irfft", "fft", "ifft")):
    _POCKETFFT = None

# The scales as 0-d float64 arrays, made once (a Python scale is converted
# to an array on every gufunc call): 1 forward, and 1/n inverse, one array
# per length n, made on its first use.
_FORWARD_SCALE = np.array(1.0)
_FORWARD_SCALE.flags.writeable = False


class _InverseScales(dict):
    def __missing__(self, n):
        scale = self[n] = np.array(1.0 / n)
        scale.flags.writeable = False
        return scale


_INVERSE_SCALE = _InverseScales()


def _transform(kind: str, n: int):
    """The transform ``kind`` ("rfft", "irfft", "fft" or "ifft") of length n
    (the real length: the input's for "rfft", the output's for "irfft") as
    ``(fn, scale)``, called ``fn(a, scale, out)``: it writes the transform of
    ``a`` along the last axis into ``out`` and returns ``out``.  An "irfft"
    of short input zero-pads it to n//2+1 modes.

    On numpy >= 2.0 ``fn`` is the pocketfft gufunc and ``scale`` its 0-d
    scale, so a stage pays no wrapper, branch or lookup.  When ``_POCKETFFT``
    is None, ``fn`` copies the result of the numpy.fft function into ``out``.
    Bind once per run: ``_POCKETFFT`` is read here, not at each call.
    """
    if _POCKETFFT is None:
        numpy_fn = {"rfft": np.fft.rfft, "irfft": np.fft.irfft, "fft": np.fft.fft,
                    "ifft": np.fft.ifft}[kind]

        def fallback(a, scale, out):
            np.copyto(out, numpy_fn(a, n, axis=-1))
            return out

        return fallback, None
    if kind == "rfft":
        return (_POCKETFFT.rfft_n_even if n % 2 == 0 else _POCKETFFT.rfft_n_odd), _FORWARD_SCALE
    if kind == "fft":
        return _POCKETFFT.fft, _FORWARD_SCALE
    return getattr(_POCKETFFT, kind), _INVERSE_SCALE[n]


def _rfft(a):
    fn, scale = _transform("rfft", a.shape[-1])
    return fn(a, scale, np.empty(a.shape[:-1] + (a.shape[-1] // 2 + 1,), complex))


def _irfft(a, n):
    fn, scale = _transform("irfft", n)
    return fn(a, scale, np.empty(a.shape[:-1] + (n,)))


# Snapshots per block that a run hands to its consumer: the run diagnostics
# pay the numpy call overhead once per block, and a streamed run holds one
# block of snapshots, never the whole run (the 2001-snapshot
# coupled-condensate micro experiment, stepping plus diagnostics, peaks at
# 2.3 MB of allocations under tracemalloc, against 18.0 MB with every
# snapshot kept).
SNAPSHOT_BLOCK = 32


class Grid:
    """Uniform periodic grid on [0, L).

    Wavenumbers are the usual FFT layout k_j = 2*pi*j/L for j = 0,...,N/2-1,
    -N/2,...,-1 (numpy fftfreq ordering).  The grid owns the Fourier
    derivative multipliers: :meth:`symbol` builds them and :meth:`diff`
    applies them.  ``half_spectrum`` holds the rfft half spectrum's k >= 0 and
    the Hermitian weights of a sum over all N modes (1 at k = 0 and Nyquist).
    """

    def __init__(self, n_points: int, length: float):
        n_points = int(n_points)
        length = float(length)
        if n_points < 8:
            raise ValueError(f"need at least 8 grid points, got {n_points}")
        if not length > 0:
            raise ValueError(f"domain length must be positive, got {length}")
        self.n_points = n_points
        self.length = length
        self.spacing = length / n_points
        self.x = np.arange(n_points) * self.spacing
        # 2*pi*fftfreq(N, d=L/N) gives integer multiples of 2*pi/L
        self.wavenumbers = 2.0 * np.pi * np.fft.fftfreq(n_points, d=self.spacing)
        half = np.arange(n_points // 2 + 1)
        self.half_spectrum = (np.abs(self.wavenumbers[half]),
                              np.where((half == 0) | (2 * half == n_points), 1.0, 2.0))
        self._symbols: dict[int | tuple, np.ndarray] = {}  # by order, and by diff's spectrum shape

    def symbol(self, order: int) -> np.ndarray:
        """Fourier multiplier (i k)**order of d^order/dx^order (cached, read-only).

        For even N the Nyquist mode is zeroed for odd orders (the sign of its
        wavenumber is ambiguous, and zeroing it keeps real fields real) and
        kept for even orders.
        """
        sym = self._symbols.get(order)
        if sym is None:
            sym = (1j * self.wavenumbers) ** order
            if order % 2 == 1 and self.n_points % 2 == 0:
                sym[self.n_points // 2] = 0.0
            sym.flags.writeable = False
            self._symbols[order] = sym
        return sym

    def rsymbol(self, order: int) -> np.ndarray:
        """:meth:`symbol` on the rfft half spectrum, modes 0..N//2 (a view); the
        Nyquist rule carries over, since (-ik)**even = (ik)**even."""
        return self.symbol(order)[: self.n_points // 2 + 1]

    def diff(self, values) -> np.ndarray:
        """d/dx of real samples along the last axis (any leading shape),
        through the rfft half spectrum.  The spectrum is multiplied in place
        by the symbol at the spectrum's shape (cached per shape), since a
        broadcast operand sends the multiply through numpy's buffered loop,
        which allocates a buffer of the spectrum's size.
        """
        spec = _rfft(values)
        sym = self._symbols.get(spec.shape)
        if sym is None:
            sym = np.broadcast_to(self.rsymbol(1), spec.shape).copy()  # C order
            self._symbols[spec.shape] = sym
        np.multiply(sym, spec, out=spec)
        return _irfft(spec, self.n_points)

    def __repr__(self):
        return f"Grid(n_points={self.n_points}, length={self.length!r})"


class Trajectory:
    """What a run of :func:`_run` returns: the snapshot times, the abort
    bookkeeping and ``meta`` (the step counts, plus what the evolver adds).
    The snapshots themselves went to the run's consumer.  The length is the
    number of snapshot times."""

    def __init__(self):
        self.times: list[float] = []
        self.aborted = False
        self.abort_reason: str | None = None
        self.abort_time: float | None = None
        self.meta: dict = {}

    def __len__(self):
        return len(self.times)


def _hs_norms(values, grid: Grid, s: int) -> np.ndarray:
    """L2 norms of dx^j f for j = 0..s via Parseval on the rfft half
    spectrum, of real samples (..., d, N) (each norm over the full
    vector-valued function): shape (..., s+1), one row of norms per leading
    index (per snapshot of a block).  The power |c_k|^2 of one spectrum is
    made once, and one scratch array of its shape into which each weighted
    |(ik)^j|^2 is copied before it multiplies the power: a broadcast operand
    would send the multiply through numpy's buffered loop, which allocates."""
    power = np.abs(_rfft(values))
    power /= grid.n_points
    np.square(power, out=power)
    scratch = np.empty_like(power)
    norms = np.empty(power.shape[:-2] + (s + 1,))
    for j in range(s + 1):
        np.copyto(scratch, grid.half_spectrum[1] * np.abs(grid.rsymbol(j)) ** 2)
        scratch *= power
        norms[..., j] = np.sqrt(grid.length * np.sum(scratch, axis=(-2, -1)))
    return norms


def rk4_factors(dt: float):
    """The per-run factors of :func:`rk4_step`: dt/2, dt, 2 and dt/6 as 0-d
    float64 arrays (numpy converts a Python float operand to an array on
    every ufunc call)."""
    return tuple(np.array(f) for f in (0.5 * dt, dt, 2.0, dt / 6.0))


def rk4_step(state, rhs, factors, stages):
    """One classical RK4 step for d/dt state = rhs(state); returns a new array.

    Stage i calls ``rhs(y, out=k_i)`` and uses the array it returns; y is
    formed in the fifth stage buffer.  ``factors`` are those of
    :func:`rk4_factors` (or, for a batch of runs, each run's stacked at the
    state's shape), and ``stages`` holds the five buffers k_1..k_4, y of
    state's shape (a (5, *state.shape) array or a tuple of arrays) that the
    caller keeps across steps; only the result is allocated.  The result is
    not checked: a non-finite stage gives a non-finite result, which the
    caller's own check of the state it keeps catches.
    """
    half, full, two, sixth = factors
    k1, k2, k3, k4, y = stages
    k1 = rhs(state, out=k1)
    np.multiply(k1, half, out=y)
    y += state
    k2 = rhs(y, out=k2)
    np.multiply(k2, half, out=y)
    y += state
    k3 = rhs(y, out=k3)
    np.multiply(k3, full, out=y)
    y += state
    k4 = rhs(y, out=k4)
    out = np.multiply(k2, two)  # state + dt/6 (k1 + 2 k2 + 2 k3 + k4), in that order
    out += k1
    out += np.multiply(k3, two, out=y)
    out += k4
    out *= sixth
    out += state
    return out


def ifrk4_factors(symbol, dt: float):
    """The per-run factors of :func:`ifrk4_step` for the diagonal linear part
    L = symbol: dt/2 and dt/6 as 0-d float64 arrays, then exp(L dt/2),
    exp(L dt), and the coefficients (dt/6) exp(L dt), (dt/3), (dt/2) and dt
    times exp(L dt/2), each at the shape of ``symbol`` (give it the
    coefficients' shape)."""
    e_half = np.exp(symbol * (dt / 2.0))
    e_full = e_half * e_half
    return (np.array(0.5 * dt), np.array(dt / 6.0), e_half, e_full, (dt / 6.0) * e_full,
            (dt / 3.0) * e_half, (dt / 2.0) * e_half, dt * e_half)


def ifrk4_step(v_hat, nonlinear, factors, stages):
    """Integrating-factor RK4 on Fourier coefficients; returns the new ones.

    Integrates d/dt v = L v + N(v) for coefficients v (in this package the
    rfft half spectrum in the padded form of :class:`Dealias`, its Nyquist
    mode halved), where L is diagonal and enters through the ``factors``
    of :func:`ifrk4_factors`.  Stage i calls ``nonlinear(y, out=stages[i])``
    and uses the array it returns; e^(L dt/2) v (then e^(L dt) v) is kept in
    ``stages[4]`` and the stage states are formed in ``stages[5]``.
    ``stages`` holds the six complex buffers of v_hat's shape that the
    caller keeps across steps (a (6, *v_hat.shape) array, or a tuple of its
    rows, which spares a view per buffer and step); only the result is
    allocated, provided the factors have v_hat's shape (a broadcast factor
    sends its multiply through numpy's buffered loop, which allocates).  The
    scheme is classical RK4 applied to
    w = exp(-L t) v, so the stiff linear part contributes no stability
    restriction.  Raises FloatingPointError when the result's sum is not
    finite (a NaN or infinite coefficient).
    """
    half, sixth, e_half, e_full, c_n1, c_n23, c_half, c_full = factors
    ev, y = stages[4], stages[5]
    n1 = nonlinear(v_hat, out=stages[0])
    np.multiply(e_half, v_hat, out=ev)  # shared by stages 2 and 3
    np.multiply(c_half, n1, out=y)
    y += ev
    n2 = nonlinear(y, out=stages[1])
    np.multiply(half, n2, out=y)
    y += ev
    n3 = nonlinear(y, out=stages[2])
    np.multiply(e_full, v_hat, out=ev)
    np.multiply(c_full, n3, out=y)
    y += ev
    n4 = nonlinear(y, out=stages[3])
    out = np.multiply(c_n1, n1)  # c_n1 n1 + ev + c_n23 (n2 + n3) + (dt/6) n4, in that order
    out += ev
    np.add(n2, n3, out=y)
    out += np.multiply(c_n23, y, out=y)
    out += np.multiply(sixth, n4, out=y)
    if not cmath.isfinite(np.add.reduce(out, axis=None)):  # with no boolean temporary
        raise FloatingPointError("ifrk4_step: non-finite state produced")
    return out


def snapshot_steps(steps: int, n_snapshots: int):
    """The snapshot schedule of a run of ``steps`` steps asking for about
    ``n_snapshots`` snapshots: (every, snaps), with snaps the steps 0, every,
    2 every, ... and the last step, so that a limit run and a microscopic run
    of the same step count snapshot at the same times."""
    every = max(1, steps // max(1, n_snapshots - 1))
    snaps = list(range(0, steps + 1, every))
    if snaps[-1] != steps:
        snaps.append(steps)
    return every, snaps


def step_plan(T: float, dt: float):
    """(steps, step) covering a duration |T|; a negative dt runs backward."""
    if dt == 0:
        raise ValueError(f"dt must be nonzero, got {dt!r}")
    steps = max(1, int(round(abs(T / dt))))
    return steps, float(np.sign(dt) * abs(T) / steps)


class _NonFinite(FloatingPointError):
    """What a batch's ``advance`` raises on a step that leaves some of its
    runs non-finite: ``rows``, their rows in the batch, and ``state``, the
    batch state of that step, whose other rows are sound."""

    def __init__(self, rows, state):
        super().__init__(f"non-finite state in batch rows {rows}")
        self.rows, self.state = rows, state


def _run(runs, state, advance, keep=None, monitor=None, check=None) -> list[Trajectory]:
    """The step loop of every run: a batch of runs stepped in lockstep, each
    step one ``advance()``, which steps every run still in the batch and
    returns the batch state, whose row r is the state of the run at row r
    (an array with the runs along its leading axis, or a sequence of their
    states).  ``runs`` holds each run's (steps, dt, n_snapshots, consume), in
    the order of the rows of ``state``, the initial batch state (an array).

    A run is snapshotted on the steps of :func:`snapshot_steps` (step 0 is
    its initial row), and its snapshots go to its ``consume(times, block)``
    in consecutive blocks of at most SNAPSHOT_BLOCK, as they are taken:
    ``block`` is an (S, *row shape) view of the run's one buffer, which the
    next block overwrites.  A run aborts on the exact step where
    ``advance()`` raises FloatingPointError for it ("non-finite state",
    nothing kept; a :class:`_NonFinite` names the rows it concerns, any
    other concerns every row), at a snapshot where ``check(row)`` returns a
    reason (nothing kept), or where ``monitor(step, state)``, called after
    every step, returns one: that stops every run, each keeping its state as
    its last snapshot.  An abort hands over the partial block first.

    A run leaves the batch after its last step or its abort, and then
    ``advance, keep = keep(rows)`` shrinks the batch to the rows that stay.
    So the runs' bookkeeping is done on the steps where some run snapshots,
    ends or aborts, and a step in between costs ``advance()`` and one
    comparison, however many runs the batch holds.  Returns one Trajectory
    per run, in ``runs`` order: ``meta["steps"]`` is its planned step count
    and ``meta["steps_taken"]`` the steps run up to its end or abort.
    """
    planned, dts, _, consumers = zip(*runs)
    trajs = [Trajectory() for _ in runs]
    bufs, blocks, upcoming, due = [], [], [], []
    for row, (steps, _, n_snapshots, _) in enumerate(runs):
        _, snaps = snapshot_steps(steps, n_snapshots)
        buf = np.empty((min(SNAPSHOT_BLOCK, len(snaps)),) + state.shape[1:], state.dtype)
        buf[0] = state[row]
        bufs.append(buf)
        blocks.append([0.0])
        upcoming.append(iter(snaps[2:]))
        due.append(snaps[1])

    def snapshot(i, step, row):
        if len(blocks[i]) == len(bufs[i]):
            trajs[i].times += blocks[i]
            consumers[i](blocks[i], bufs[i])
            blocks[i] = []
        bufs[i][len(blocks[i])] = row
        blocks[i].append(step * dts[i])

    def finish(i, step, reason):
        traj, block = trajs[i], blocks[i]
        traj.times += block
        consumers[i](block, bufs[i][:len(block)])
        traj.abort_reason, traj.aborted = reason, reason is not None
        if traj.aborted:
            traj.abort_time = step * dts[i]
        traj.meta.update(steps=planned[i], steps_taken=step)

    batch = list(range(len(runs)))  # the run at each row of the batch state
    event, failed = min(due), ()
    for step in itertools.count(1):
        try:
            state = advance()
        except FloatingPointError as exc:
            failed = exc.rows if isinstance(exc, _NonFinite) else range(len(batch))
            for r in failed:
                finish(batch[r], step, "non-finite state")
            if len(failed) == len(batch):
                break
            state, event = exc.state, step
        if monitor is not None:
            reason = monitor(step, state)
            if reason is not None:
                for r, i in enumerate(batch):
                    snapshot(i, step, state[r])
                    finish(i, step, reason)
                break
        if step == event:
            stay = []
            for r, i in enumerate(batch):
                if r in failed:
                    continue
                if due[i] == step:
                    reason = None if check is None else check(state[r])
                    if reason is not None:
                        finish(i, step, reason)
                        continue
                    snapshot(i, step, state[r])
                    if step == planned[i]:
                        finish(i, step, None)
                        continue
                    due[i] = next(upcoming[i])
                stay.append(r)
            if len(stay) < len(batch):
                if not stay:
                    break
                batch = [batch[r] for r in stay]
                advance, keep = keep(stay)
            event, failed = min(due[i] for i in batch), ()
    return trajs


def integrate(values, grid: Grid):
    """Integral over [0, L) of grid samples along the last axis (exact for
    trigonometric polynomials): a float for (N,), one integral per leading
    index otherwise."""
    return np.sum(values, axis=-1) * grid.spacing


def l2_norm(values, grid: Grid):
    """L2 norm of (possibly multi-component, possibly complex) grid samples:
    a float for (N,) or (d, N), one norm per leading index of (..., d, N)."""
    v = np.asarray(values)
    axes = (-2, -1) if v.ndim >= 2 else -1
    return np.sqrt(np.sum(np.abs(v) ** 2, axis=axes) * grid.spacing)


class Dealias:
    """Workspace of one run's dealiased products of d-component fields with
    rfft coefficients on n points, multiplied on m >= n*factor points.  Its
    coefficients are in the padded form: the rfft coefficients times
    ``split``, which halves the Nyquist mode of even n between +k and -k.
    ``samples(half=low)`` is one irfft of a contiguous (fields*d, n//2+1)
    array of them (by default ``low``, which callers fill) to m points into
    ``padded`` (the transform zero-pads its short input); ``coeffs(product)``
    is one rfft of a (d, m) product back, truncated to n//2+1 modes, with the
    Nyquist imaginary part of even n zeroed unless the workspace is ``odd``
    (its caller's output symbol is odd, so zero at that mode).  Each returns
    a buffer the workspace owns (valid until its next call), and both are
    closures made once, on transforms bound once, so a step kernel binds
    them once per run.  The m/n scalings and the factor 2 of the recombined
    Nyquist mode go into the caller's symbol through :meth:`fold`, once per
    run; a symbol times ``split`` gives the product in the padded form.
    ``split`` and the folded symbols have the shape of ``low``, and the
    leading rows of each are contiguous: a ufunc with a broadcast or strided
    operand runs numpy's buffered loop, which allocates and is 2-3x
    slower."""

    def __init__(self, n: int, factor: float, d: int, fields: int = 1, odd: bool = False):
        m = int(np.ceil(n * factor))
        self.n, self.m = n, m + m % 2  # the smallest even size; factor 3/2 is the 2/3 rule
        k = n // 2 + 1
        self.low = low = np.zeros((fields * d, k), np.complex128)
        self.split = self.nyquist_split(n, fields * d)
        self.padded = padded = np.empty((fields * d, self.m))
        pad, pad_scale = _transform("irfft", self.m)
        rfft, rfft_scale = _transform("rfft", self.m)
        # the product's spectrum, its truncation to n//2+1 modes, the
        # contiguous array handed out (the truncation itself for one row, a
        # copy of it for more) and, for even n and an even symbol, the
        # imaginary part of that array's Nyquist mode
        spectrum = np.empty((d, self.m // 2 + 1), np.complex128)
        head = spectrum[:, :k]
        out = head if d == 1 else np.empty((d, k), np.complex128)
        nyquist = None if n % 2 or odd else out.imag[:, n // 2]

        def samples(half=low):
            return pad(half, pad_scale, padded)

        def coeffs(product):
            rfft(product, rfft_scale, spectrum)
            if out is not head:
                np.copyto(out, head)
            if nyquist is not None:
                nyquist.fill(0.0)
            return out

        self.samples, self.coeffs = samples, coeffs

    @staticmethod
    def nyquist_split(n: int, rows: int) -> np.ndarray:
        """``split`` of ``rows`` rows on n points: ones with the Nyquist mode
        of even n halved.  Scaling by it is exact, so the padded form holds
        the same bits up to that factor."""
        return np.tile(np.where(2 * np.arange(n // 2 + 1) == n, 0.5, 1.0), (rows, 1))

    def fold(self, symbol, factors: int) -> np.ndarray:
        """``symbol`` times the scale of a product of ``factors`` padded
        fields, with the Nyquist recombination, at the shape of ``low``."""
        return symbol * ((self.m / self.n) ** (factors - 1) / self.split)


def fourier_shift(comps, grid: Grid, delta: float):
    """Translate real samples by delta (f(x) -> f(x - delta)) via a spectral
    phase on the half spectrum, which multiplies a Nyquist mode by cos(k_N delta).
    delta is reduced mod L first (a shift by L changes no grid function), so
    a large shift loses no phase to rounding."""
    comps = np.atleast_2d(np.asarray(comps))
    delta = math.fmod(delta, grid.length)
    return _irfft(np.exp(-1j * grid.half_spectrum[0] * delta) * _rfft(comps), grid.n_points)
