"""Shared test fixtures."""

import collections
import functools
import json
import types

import numpy as np
import pytest

from kdvlab import grid
from kdvlab.experiments import ExperimentConfig, default_config, run_experiment

# the pocketfft gufuncs behind numpy.fft, by the transform each one makes
_GUFUNCS = {"rfft_n_even": "rfft", "rfft_n_odd": "rfft", "irfft": "irfft", "fft": "fft", "ifft": "ifft"}


@pytest.fixture
def fft_calls(monkeypatch):
    """Count the transforms of kdvlab's transform layer (``kdvlab.grid``):
    calls through a proxy for the bound gufunc module, or calls of
    numpy.fft.fft/ifft/rfft/irfft when none is bound.  Returns a Counter of
    calls per (transform name, rows), the name one of "rfft", "irfft", "fft",
    "ifft" and rows the number of rows a call transforms (its input's size
    over the length of its last axis)."""
    counts = collections.Counter()

    def counted(name, transform):
        def call(a, *args, **kwargs):
            a = np.asarray(a)
            counts[name, a.size // a.shape[-1]] += 1
            return transform(a, *args, **kwargs)

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


# The converge runs the acceptance criteria read: each family at the default
# converge config; the three families added to the scalar condensate and the
# easy-plane chain run at eps 0.2 and 0.1 only, to keep the suite short.  The
# coupled condensate runs at gamma = 0.7, so that its limit has a coupled
# nonlinearity (at gamma = 0 it is two copies of the scalar one).
CONVERGE_FAMILIES = {
    "gp_scalar": {},
    "ll_easy_plane": {},
    "gp_coupled": {"params": {"gamma": 0.7}, "eps_list": [0.2, 0.1]},
    "ll_easy_cone": {"params": {"alpha": 1.0, "theta0": 1.0}, "eps_list": [0.2, 0.1]},
    "af_chain": {"eps_list": [0.2, 0.1]},
}


@pytest.fixture(scope="session")
def converge_run(tmp_path_factory):
    """``converge_run(family)``: the artifacts of one ``converge`` run of a
    family of CONVERGE_FAMILIES through ``run_experiment`` (its ε-runs
    stepped as one batch), made once per pytest session.  Returns a
    namespace with the exit ``status``, the ``summary``, its assertions by name (``checks``) and ``series``, the
    columns of each ``converge_eps_*.csv`` by eps."""
    root = tmp_path_factory.mktemp("converge")

    @functools.cache
    def run(family):
        raw = dict(default_config("converge"), preset=family,
                   output_dir=str(root / family), **CONVERGE_FAMILIES[family])
        cfg = ExperimentConfig.from_dict(raw)
        status = run_experiment(cfg)
        summary = json.loads((root / family / "summary.json").read_text())
        series = {}
        for eps in cfg.eps_list:
            table = np.genfromtxt(root / family / f"converge_eps_{eps!r}.csv", delimiter=",",
                                  names=True)
            series[eps] = {name: table[name] for name in table.dtype.names}
        return types.SimpleNamespace(status=status, summary=summary, series=series,
                                     checks={a["name"]: a for a in summary["assertions"]})

    return run
