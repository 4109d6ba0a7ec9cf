"""Stopwatch that reports wall time scaled to a fixed machine speed.

The speed of a shared machine can drift by a factor of two within seconds,
so raw wall times of two runs of the same code differ by far more than a
code change. Each timed interval is therefore bracketed by a calibration
kernel: a fixed piece of pure-Python integer work that uses neither piforge
nor mpmath. The interval is reported as

    scaled = raw * REF_KERNEL_S / (mean kernel time before and after it)

that is, as the wall time the interval would take on a machine where the
kernel takes REF_KERNEL_S. A change to piforge moves ``raw`` but not the
kernel, so it shows in ``scaled``; a change of machine speed moves both and
cancels. Kernel runs are never inside the interval they scale.

One kernel run is noisy (a quarter either way), which the many short
operations of a pass average out. A few long intervals, such as a set-up,
are better scaled as a whole: ``overall`` divides their raw total by the
mean of all calibrations, each the median of several kernel runs.

Scaling only helps where the timed code slows down as the kernel does. On
the shared 2-vCPU virtual machine this was measured on, the speed switches
between a fast and a slow state that lasts a second or more, and the slow
state costs the kernel about 1.7 times its fast time.
Interpreter-bound code (series evaluation on warm caches, symbolic solves,
coefficient fills) slows by about as much, and scaling takes the switch out
of it. The 8192-bit battery items, whose time goes to large-integer
multiplication, and the CLI commands, which run in child processes, barely
follow the kernel, and scaling them widened their spread; the workloads
say which of their times are scaled.
"""

from __future__ import annotations

import gc
import statistics
import time

REF_KERNEL_S = 0.004
# a calibration older than this is repeated before the next interval starts
STALE_S = 0.25

_SMALL = 3 ** 1300      # about 2,060 bits
_LARGE = 7 ** 6000      # about 16,800 bits


def kernel() -> float:
    """Seconds the calibration kernel takes now (garbage collection held off)."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    acc = 0
    for i in range(400):
        acc += (_SMALL * (_SMALL + i)) >> 2000
    for i in range(8):
        acc ^= (_LARGE * (_LARGE - i)) >> 33000
    seconds = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return seconds


class Stopwatch:
    """Times intervals, scales each, and keeps their raw total.

    ``repeats`` kernel runs make one calibration (their median); with
    ``repeats=0`` nothing is calibrated and scaled times equal raw ones.
    """

    def __init__(self, repeats: int = 1):
        self.repeats = repeats
        self.raw = 0.0
        self.calibrations = []
        self._cal = 0.0
        self._cal_at = float("-inf")
        self._before = 0.0
        self._t0 = 0.0

    def _calibrate(self) -> None:
        self._cal = statistics.median(kernel() for _ in range(self.repeats))
        self.calibrations.append(self._cal)
        self._cal_at = time.perf_counter()

    def start(self) -> None:
        if self.repeats and time.perf_counter() - self._cal_at > STALE_S:
            self._calibrate()
        self._before = self._cal
        self._t0 = time.perf_counter()

    def stop(self) -> tuple[float, float]:
        """(raw, scaled) seconds since ``start``; the raw ones add to ``raw``."""
        raw = time.perf_counter() - self._t0
        scaled = raw
        if self.repeats:
            self._calibrate()
            scaled = raw * 2 * REF_KERNEL_S / (self._before + self._cal)
        self.raw += raw
        return raw, scaled

    def lap(self) -> None:
        """End the current interval and start the next (kernel time left out)."""
        self.stop()
        self.start()

    @property
    def overall(self) -> float:
        """Raw total scaled by the mean of all calibrations."""
        return self.raw * REF_KERNEL_S / statistics.fmean(self.calibrations)
