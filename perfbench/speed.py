"""Host speed: a fixed computation, timed while the benchmark runs.

On a shared host (the bounds were set on two vCPUs of one) the speed can
swing by 60-100 % for tens of seconds at a time, and everything in the
process slows together, though not all code by the same factor.  The
fixed kernel below mixes the kinds of work eprsim does (a scipy RK45 solve
of a small ODE with a numpy right-hand side, and a pass over a 1 MiB
array) and never touches eprsim.  ``Sampler`` times it every
``PERIOD_S`` seconds of wall time from a SIGALRM handler, also in the
middle of an item, and scales an item's wall time (less the time the
samples took) by the mean of
``NOMINAL_S / sample`` over the samples taken during the item and the
last one before it: the result is the time the item would take at the
speed at which the kernel takes ``NOMINAL_S``.  ``probe()`` is the one-off
form, for a set-up that ends before a sampler could start.

The speed changes within fractions of a second, so the samples must be
dense and near the item.  On that host, over 2.5 minutes of repeated
``trajectory`` passes, the coefficient of variation of the 0.3-0.6 s
items' times was 0.11-0.15 unscaled; scaled it was 0.04-0.06 with a
sample every 0.05 s from within the item, 0.06-0.08 every 0.1 s, and
0.08-0.10 every 0.1 s with the samples of 1 s around the item.  The mix of
the kernel mattered less: an ODE-only or a pure-Python kernel did about as
well on ``trajectory``, but the ODE-only one tracked the memory-bound
``hybrid`` items less well.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np
from scipy.integrate import solve_ivp

# probe() on the host the bounds were set on (2 vCPUs, CPython 3.11, numpy
# 2 with one BLAS thread) at a quiet moment.  It is only the unit of the
# scaled timings: changing it rescales every one of them alike.
NOMINAL_S = 0.0022
PERIOD_S = 0.05  # a sample costs about 5 % of the time it covers

_BIG = np.linspace(0.0, 1.0, 1 << 17)  # 1 MiB, well past the L1 cache
# The large pass writes into a fixed buffer: an allocation of this size
# costs page faults or not depending on what the process freed before
# (glibc's adaptive mmap threshold), which is not host speed.
_BUF = np.empty_like(_BIG)
_A = np.array([[-1.0, 0.3, 0.0, 0.0], [0.2, -2.0, 0.1, 0.0],
               [0.0, 0.1, -0.5, 0.3], [0.0, 0.0, 0.2, -1.0]])
_Y0 = np.array([1.0, 0.5, 0.2, 0.1])


def _rhs(t, y):
    return _A @ y + 0.1 * np.sin(y)


def _kernel() -> float:
    sol = solve_ivp(_rhs, (0.0, 2.0), _Y0, rtol=1e-7, atol=1e-9)
    np.copyto(_BUF, _BIG)
    for _ in range(2):  # cache and memory traffic
        np.multiply(_BUF, 0.999, out=_BUF)
        np.sqrt(_BUF, out=_BUF)
    return float(sol.y[0, -1]) + float(_BUF[-1])


def _timed() -> float:
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


def probe(repeats: int = 5) -> float:
    """Median time of the kernel, in seconds, after one untimed call."""
    _kernel()
    return statistics.median(_timed() for _ in range(repeats))


class Sampler:
    """Times the kernel every PERIOD_S seconds while it is started.

    Python runs the handler between bytecodes of the main thread, so a
    sample waits for a long C call to return and never interleaves with
    one.  The samples' own time is counted in ``stolen``.
    """

    def __init__(self):
        self.samples = []  # (perf_counter at the start, kernel time)
        self.stolen = 0.0  # wall time spent sampling

    def _tick(self, signum=None, frame=None):
        t0 = time.perf_counter()
        self.samples.append((t0, _timed()))
        self.stolen += time.perf_counter() - t0

    def start(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def scale(self, start: float, end: float, net: float) -> float:
        """``net`` seconds of work done from ``start`` to ``end``
        (perf_counter), at the nominal speed; call it after ``stop``."""
        # The last sample before the start may be older than PERIOD_S: the
        # handler waits while a long C call runs.
        first = max(bisect.bisect_right(self.samples, start,
                                        key=lambda s: s[0]) - 1, 0)
        last = bisect.bisect_right(self.samples, end, key=lambda s: s[0])
        near = self.samples[first:max(last, first + 1)]
        return net * statistics.fmean(NOMINAL_S / k for _, k in near)
