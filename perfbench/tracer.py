"""Span tracer installed from outside the program.

The tracer replaces public functions of the kdvlab layers with wrappers that
record one span per call (name, start, end, parent), and replaces
``numpy.fft.fft``/``ifft`` with wrappers that add their call count, points
and time to the innermost open span.  Each function is replaced at every
module attribute that refers to it, so a call is seen at the name its caller
imports (``kdvlab.experiments.evolve_micro``, ``kdvlab.kdv.ifrk4_step``,
``kdvlab.hydro.chart_extract``, ...).  Spans are kept in memory and written
out once the traced pass is over.

Self time of a span is its duration minus the durations of its child spans
and minus the FFT time attributed to it, so the self times of all spans and
``grid.fft_s`` add up to the traced wall time.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import sys
import time

LAYERS = ("grid", "kdv", "models", "micro", "hydro", "analysis", "experiments")

# Private functions wrapped as well: the spin-chain right-hand side is called
# through a lambda inside grid.rk4_step, and without its own span its time
# would be charged to the grid layer.
EXTRA = {"micro": ("_rhs_raw",)}

# The span name of the pass itself, opened by the caller around the
# workload's experiments; it catches FFT calls made outside any layer span.
ROOT = "bench.pass"

_ORIGINAL = "__perfbench_original__"


class Tracer:
    """Spans in parallel lists, indexed by span id in order of opening."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.fft_calls: list[int] = []
        self.fft_points: list[int] = []
        self.fft_s: list[float] = []
        self.counts: dict[int, dict] = {}
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.fft_calls.append(0)
        self.fft_points.append(0)
        self.fft_s.append(0.0)
        self.ends.append(0.0)
        self._stack.append(sid)
        self.starts.append(self.clock())
        return sid

    def close(self, sid: int) -> None:
        self.ends[sid] = self.clock()
        self._stack.pop()

    def span(self, name: str, fn, count=None):
        """Wrap ``fn`` so each call records a span named ``name``; ``count``
        maps its return value to counters kept with the span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if count is not None:
                self.counts[sid] = count(result)
            return result

        setattr(wrapper, _ORIGINAL, fn)
        return wrapper

    def fft_counter(self, fn):
        """Wrap a numpy transform so its calls are charged to the innermost span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = self.clock()
            out = fn(*args, **kwargs)
            elapsed = self.clock() - t0
            sid = self._stack[-1]
            if sid >= 0:
                self.fft_calls[sid] += 1
                self.fft_points[sid] += out.size
                self.fft_s[sid] += elapsed
            return out

        setattr(wrapper, _ORIGINAL, fn)
        return wrapper

    # -- installation ------------------------------------------------------

    def install(self, counters=None) -> None:
        """Wrap every public layer function at each name that refers to it.

        ``counters`` maps span names (``layer.function``) to functions that
        read work counters off the return value, such as the step count a
        trajectory reports.
        """
        import numpy.fft

        counters = counters or {}
        targets = {}
        for layer in LAYERS:
            module = sys.modules[f"kdvlab.{layer}"]
            for attr, obj in vars(module).items():
                public = not attr.startswith("_") or attr in EXTRA.get(layer, ())
                if public and inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    name = f"{layer}.{attr}"
                    targets[obj] = self.span(name, obj, counters.get(name))
        for modname, module in sorted(sys.modules.items()):
            if modname == "kdvlab" or modname.startswith("kdvlab."):
                for attr, obj in list(vars(module).items()):
                    if inspect.isfunction(obj) and obj in targets:
                        self._patch(module, attr, targets[obj])
        for attr in ("fft", "ifft"):
            self._patch(numpy.fft, attr, self.fft_counter(getattr(numpy.fft, attr)))

    def _patch(self, owner, attr, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as one CSV row (times relative to the first span)."""
        t0 = self.starts[0] if self.starts else 0.0
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,name,start_s,end_s,fft_calls,fft_points,fft_s\n")
            for sid, name in enumerate(self.names):
                fh.write(f"{sid},{self.parents[sid]},{name},"
                         f"{self.starts[sid] - t0:.9f},{self.ends[sid] - t0:.9f},"
                         f"{self.fft_calls[sid]},{self.fft_points[sid]},"
                         f"{self.fft_s[sid]:.9f}\n")


def installed_wrappers() -> list[str]:
    """Names of kdvlab or numpy.fft attributes that are currently wrapped."""
    import numpy.fft

    found = [f"numpy.fft.{attr}" for attr, obj in vars(numpy.fft).items()
             if hasattr(obj, _ORIGINAL)]
    for modname, module in list(sys.modules.items()):
        if modname == "kdvlab" or modname.startswith("kdvlab."):
            found += [f"{modname}.{attr}" for attr, obj in vars(module).items()
                      if hasattr(obj, _ORIGINAL)]
    return found


def self_times(tracer: Tracer) -> list[float]:
    """Per span: duration minus child span durations minus its FFT time."""
    child = [0.0] * len(tracer.names)
    for sid, parent in enumerate(tracer.parents):
        if parent >= 0:
            child[parent] += tracer.ends[sid] - tracer.starts[sid]
    return [tracer.ends[s] - tracer.starts[s] - child[s] - tracer.fft_s[s]
            for s in range(len(tracer.names))]


def subtree_sums(tracer: Tracer, values) -> list:
    """Per span: the sum of ``values`` over the span and all its descendants."""
    out = list(values)
    for sid in range(len(out) - 1, -1, -1):
        parent = tracer.parents[sid]
        if parent >= 0:
            out[parent] += out[sid]
    return out


def credit(tracer: Tracer, targets) -> list[int]:
    """Per span: the nearest ancestor-or-self span of the same layer whose
    name is in ``targets``, or -1.  A layer's self time is credited there, so
    helpers of a layer count towards the named function that called them,
    even across spans of other layers in between."""
    names, parents = tracer.names, tracer.parents
    owner = [-1] * len(names)
    for sid, name in enumerate(names):
        layer = name.split(".", 1)[0]
        cur = sid
        while cur >= 0:
            if names[cur] in targets and names[cur].split(".", 1)[0] == layer:
                owner[sid] = cur
                break
            cur = parents[cur]
    return owner
