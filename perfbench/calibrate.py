"""Machine-speed calibration for timings taken on a shared host.

On a host shared with other tenants the same code runs up to about 1.7x
slower for stretches of tens of seconds, on either core. CPU time slows as
much as wall time, so the slowdown is contention for the core itself, not
waiting to be scheduled. A median over one run cannot remove a slowdown that
lasts the whole run.

The benchmark therefore times a fixed kernel of its own next to every call:
a per-sample Python recurrence, string parsing and small numpy convolutions,
the same kinds of work the program does. A call's wall time is scaled by
``NOMINAL_KERNEL_NS / kernel_ns``, where ``kernel_ns`` is the kernel's thread
CPU time measured at that moment. The result is in seconds of a host running
the kernel in ``NOMINAL_KERNEL_NS``. The kernel is benchmark code, so no
change to the program can move it. Raw wall times are kept in every record.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

# The kernel's thread CPU time on an uncontended core of the 2-core host the
# benchmark was written on. It only sets the unit; the ratio of two runs does
# not depend on it.
NOMINAL_KERNEL_NS = 3_200_000

_SIGNAL = np.exp(1j * 0.01 * np.arange(4096))
_TAPS = np.hanning(33)
_LINES = [",".join(str(i * j + 0.5) for j in range(12)) for i in range(120)]


def kernel_ns() -> int:
    """Thread CPU time of one fixed unit of work."""
    t0 = time.thread_time_ns()
    gain = 1.0
    x = _SIGNAL
    for n in range(1500):
        y = gain * x[n]
        err = 1.0 - (y.real * y.real + y.imag * y.imag)
        gain = min(max(gain * (1.0 + 0.05 * err), 1e-6), 1e6)
    total = 0.0
    for line in _LINES:
        cells = line.split(",")
        total += sum(float(c) for c in cells[1:])
    for _ in range(6):
        np.convolve(x, _TAPS)
    return time.thread_time_ns() - t0


class Sampler:
    """Times the kernel every ``interval_s`` from a thread while a call runs.

    For calls whose work runs in pool workers, so the parent thread is idle
    and a single sample before and after would miss a change of host speed
    during a call that takes seconds.
    """

    def __init__(self, interval_s: float = 0.1) -> None:
        self.interval_s = interval_s
        self.samples: list[int] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.samples.append(kernel_ns())

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def speed_factor(samples: list[int], parallel: bool = False) -> float:
    """Multiplier that turns this host's wall time into nominal-host time.

    Work on one thread takes time in proportion to the host's mean slowness
    (kernel time) over the call. Work shared out among pool workers on every
    core finishes at the cores' summed speed, so for a pooled call the
    speeds (inverse kernel times) are averaged instead.
    """
    if parallel:
        return NOMINAL_KERNEL_NS * statistics.fmean(1.0 / ns for ns in samples)
    return NOMINAL_KERNEL_NS / statistics.fmean(samples)
