"""Shared test fixtures."""

import collections
import types

import numpy as np
import pytest

from kdvlab import grid

# the pocketfft gufuncs behind numpy.fft, by the transform each one makes
_GUFUNCS = {"rfft_n_even": "rfft", "rfft_n_odd": "rfft", "irfft": "irfft", "fft": "fft", "ifft": "ifft"}


@pytest.fixture
def fft_calls(monkeypatch):
    """Count the transforms of kdvlab's transform layer (``kdvlab.grid``):
    calls through a proxy for the bound gufunc module, or calls of
    numpy.fft.fft/ifft/rfft/irfft when none is bound.  Returns a Counter of
    calls per transform name ("rfft", "irfft", "fft", "ifft")."""
    counts = collections.Counter()

    def counted(name, transform):
        def call(*args, **kwargs):
            counts[name] += 1
            return transform(*args, **kwargs)

        return call

    bound = grid._POCKETFFT
    if bound is None:
        for name in ("fft", "ifft", "rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
    else:
        proxy = types.SimpleNamespace(**{attr: counted(name, getattr(bound, attr))
                                         for attr, name in _GUFUNCS.items()})
        monkeypatch.setattr(grid, "_POCKETFFT", proxy)
    return counts
