"""Host speed probe: how fast the CPU ran this process while it was timed.

On a shared virtual machine the same work can take 1.5 times longer in one
stretch of minutes than in the next, because the host runs the vCPU slower
(other tenants); steal time does not show it.  The probe times a fixed
pure-Python integer loop on a timer signal, every INTERVAL_S, in the
benchmark's own process, so it sees the same vCPU at the same moments as the
timed work.  The loop touches no memory beyond a few integers and calls no
rhflab code, so a change to rhflab does not change the probe's time; only
the host's speed does.

`slowdown(start, end)` is the median probe time in a window divided by
REFERENCE_S, the median probe time on an unloaded host (Intel Xeon KVM guest
at 2.1 GHz, Python 3.11.7).  A time divided by it is that time at the
reference host speed.  The probe itself costs about 1% of the timed work,
in every repetition alike.
"""

import signal
import statistics
import time

INTERVAL_S = 0.01
SPIN = 1000
REFERENCE_S = 8.5e-05


def _spin(n: int = SPIN) -> int:
    s = 0
    for i in range(n):
        s += i * i % 7
    return s


class SpeedProbe:
    """Collects (end time, duration) of the probe loop on SIGALRM."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        _spin()
        end = time.perf_counter()
        self.samples.append((end, end - start))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def slowdown(self, start: float, end: float) -> float | None:
        """Median probe time in [start, end] (perf_counter) over REFERENCE_S."""
        window = [d for t, d in self.samples if start <= t <= end]
        return statistics.median(window) / REFERENCE_S if window else None
