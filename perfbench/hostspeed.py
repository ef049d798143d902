"""Host speed: a fixed reference loop, timed between the program's operations.

On a shared host each CPU turns up to ~1.7x slower and back, for
stretches of a second to tens of seconds, and the slow stretches take CPU
time as well as wall time (the process's CPU seconds follow its wall
seconds to within 2%), so no clock of the process removes them.  The benchmark therefore times this
loop, which is its own code and calls nothing in harvnet, around every
stretch of operations, and scales each operation's wall time by REF_S over
the loop's time: the result is the operation's time on a host where the
loop takes REF_S seconds.  The loop mixes what the program's time is made
of: interpreted arithmetic, calls on small numpy arrays and scipy `quad`
over a Python integrand.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np
from scipy import integrate

# Close to the loop's median time on the 2-vCPU x86-64 host the README's
# figures come from (0.8 ms in its fast stretches, 1.3 ms in its slow ones),
# so times at reference speed read close to wall times there.
REF_S = 0.00125
REPS = 3


def _loop() -> float:
    total = 0.0
    for i in range(6000):
        total += math.sqrt(i + 0.5)
    x = np.linspace(0.0, 1.0, 64)
    for _ in range(120):
        x = np.sqrt(x * 0.999 + 0.25)
    for j in range(6):
        total += integrate.quad(lambda t: math.exp(-(1 + j) * t) / (1 + t * t),
                                0.0, math.inf)[0]
    return total + float(x[0])


def loop_s() -> float:
    """Median time of REPS runs of the reference loop."""
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Sampler:
    """Times the loop every PERIOD_S while an in-process operation runs.

    A timer signal runs the loop once in this thread between two bytecodes
    of the operation, so a long operation is scaled by the speed the CPU had
    while it ran, not only at its ends.  `spent` is the wall time the loop
    took, which the caller takes out of the operation's time.  Not for an
    operation that waits on a child process: on one CPU the loop would take
    turns with the child.
    """

    PERIOD_S = 0.1

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.samples: list[float] = []
        self.spent = 0.0

    def __enter__(self) -> "Sampler":
        if self.enabled:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _loop()
        took = time.perf_counter() - t0
        self.samples.append(took)
        self.spent += took
