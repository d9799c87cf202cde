"""Exact flow of a Fourier-diagonal linear equation, the oracle the spectral
steppers are tested against."""

import numpy as np

from kdvlab.grid import Field


def advance_linear(f: Field, symbol, dt: float) -> Field:
    """Multiply each Fourier mode of ``f`` by exp(symbol*dt).

    ``symbol`` holds the per-mode complex multipliers in FFT order, e.g.
    grid.symbol(3) / (8*c) for the quarter-Airy flow 2c*dA/dt = (1/4)*dxxx A.
    Real fields stay real; an overflowing factor raises OverflowError.
    """
    if not np.isfinite(f.components).all():
        raise ValueError("advance_linear: non-finite input field")
    with np.errstate(over="ignore"):
        factor = np.exp(np.asarray(symbol, dtype=np.complex128) * dt)
    if not np.isfinite(factor).all():
        raise OverflowError("advance_linear: exp(symbol*dt) overflowed")
    out = np.fft.ifft(factor * np.fft.fft(f.components, axis=-1), axis=-1)
    return Field(f.grid, out.real if f.is_real else out, validate=False)
