"""Shared test fixtures."""

import numpy as np
import pytest


@pytest.fixture
def fft_calls(monkeypatch):
    """Count calls of numpy.fft.fft/ifft/rfft/irfft; returns a dict whose
    "total" entry grows by one per transform."""
    counts = {"total": 0}
    for name in ("fft", "ifft", "rfft", "irfft"):

        def counted(*args, _transform=getattr(np.fft, name), **kwargs):
            counts["total"] += 1
            return _transform(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return counts
