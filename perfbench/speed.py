"""Host-speed calibration for the benchmark's timings.

On a shared host the speed of the same code drifts by up to a factor of two
over a few seconds, as neighbours come and go, and ``process_time`` drifts
with wall time, so neither a longer run nor CPU time removes it.  A
:class:`Speedometer` therefore times a fixed piece of work (a calibration)
every ``INTERVAL_S`` seconds from a ``SIGALRM`` handler while the sample
runs, and converts the work between two splits to seconds at the reference
speed::

    calibrated = work seconds * mean(reference / calibration seconds)

where the mean runs over the calibrations made in that stretch, so a stretch
that ran at half speed counts half.  The handler's own time is left out of
the work clock, and so out of every span the tracer records.

Two calibrations: :func:`interpreter_work` (pure Python) runs from the start
of a sample, before numpy is imported, and calibrates set-up;
:func:`array_calibration` adds small numpy ufunc and FFT calls, the mix the
kdvlab passes spend their time in, and calibrates passes.  Neither touches
kdvlab, so a change to the program cannot change them.  Raw seconds are kept
next to the calibrated ones in the full record.
"""

from __future__ import annotations

import signal
import time

# seconds between calibrations; each takes under 1 ms
INTERVAL_S = 0.05
# Each calibration's duration at the reference speed, about its median on the
# 2-core host the benchmark was defined on (Intel Xeon, Python 3.11, numpy
# 2.4); calibrated seconds equal raw seconds on a host running at that speed.
# Fixed for good: changing one rescales every result measured with it.
INTERPRETER_REFERENCE_S = 4.0e-4
ARRAY_REFERENCE_S = 9.0e-4


def interpreter_work() -> None:
    """A fixed piece of pure-Python work."""
    total = 0
    for i in range(4000):
        total += i * i % 7
    table = {}
    for i in range(400):
        table[i] = str(i + total)
    "".join(table.values())


def array_calibration():
    """(work, reference seconds) for passes: interpreter work plus numpy
    ufuncs and FFTs on 256 points.  The FFT functions are bound here, so the
    calibration never runs through a tracer's wrappers installed later."""
    import numpy

    fft, ifft, exp = numpy.fft.fft, numpy.fft.ifft, numpy.exp
    x = numpy.linspace(-1.0, 1.0, 256) + 1j

    def work() -> None:
        interpreter_work()
        z = x
        for _ in range(15):
            z = ifft(fft(z)) * 0.5 + exp(-0.01j * z.real)
        float(abs(z).sum())

    return work, ARRAY_REFERENCE_S


class Speedometer:
    """Periodic calibration of the host speed, in the main thread."""

    def __init__(self, work=interpreter_work, reference=INTERPRETER_REFERENCE_S,
                 interval: float = INTERVAL_S):
        # one attribute, so the handler never sees half of a replacement
        self.calibration = (work, reference)
        self.interval = interval
        self.paused = 0.0  # seconds spent calibrating, kept off the work clock
        self.speeds: list[float] = []  # reference / calibration seconds
        self._previous = None
        self._busy = False

    def _sample(self) -> None:
        self._busy = True
        started = time.perf_counter()
        work, reference = self.calibration
        work()
        took = time.perf_counter() - started
        self.speeds.append(reference / took)
        self.paused += time.perf_counter() - started
        self._busy = False

    def _on_alarm(self, signum, frame) -> None:
        if not self._busy:
            self._sample()

    def start(self) -> "Speedometer":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def work_clock(self) -> float:
        """``perf_counter`` minus the time spent calibrating."""
        return time.perf_counter() - self.paused

    def split(self, work=None, reference=None) -> float:
        """Mean speed since the last split (1.0 at the reference speed).

        Multiply the work seconds of that stretch by it to get calibrated
        seconds.  A stretch too short to hold a calibration gets one now.
        ``work`` and ``reference``, if given, replace the calibration from
        here on.
        """
        if not self.speeds:
            self._sample()
        speeds, self.speeds = self.speeds, []
        if work is not None:
            self.calibration = (work, reference)
        return sum(speeds) / len(speeds)
