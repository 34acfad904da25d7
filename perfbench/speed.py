"""Machine-speed probe, so times can be stated at one reference speed.

On the shared 2-vCPU sandbox this benchmark was tuned on, the same op runs
anywhere from 0.15 to 0.3 s as the host's load changes over minutes, and
the slowdown hits plain Python and small-array numpy work alike.  While a
worker runs, a SIGALRM timer interrupts it every PROBE_INTERVAL_S and times
a fixed pure-Python probe (independent of dytb) in the same thread.  A
timed stretch (set-up, or one op) is its wall time minus the probes inside
it, scaled by REFERENCE_PROBE_S / (mean probe time over the stretch, the
slowest and fastest tenth left out): its time on a machine where the probe
takes REFERENCE_PROBE_S.  A mean follows the share of the stretch spent in
slow periods, which is what stretches a long op.  The probe's code and
REFERENCE_PROBE_S must never change, or results stop being comparable with
earlier ones.
"""

from __future__ import annotations

import signal
import statistics
import time

PROBE_INTERVAL_S = 0.01
REFERENCE_PROBE_S = 0.0002
MIN_SAMPLES = 25  # a stretch with fewer probes borrows the ones before it


def probe() -> int:
    """A fixed piece of dict and integer work, about 0.2 ms."""
    total = 0
    seen = {}
    for i in range(400):
        key = (i & 7, i % 5)
        total += seen.get(key, i) * 3
        seen[key] = total & 0xFFFF
    return total


class SpeedProbe:
    """Samples the probe on a timer while installed (``with SpeedProbe() as p``)."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        probe()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> SpeedProbe:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        return len(self.samples)

    def since(self, mark: int) -> tuple[float, float]:
        """For the stretch that started at ``mark``: the seconds its probes
        took, and the factor that scales its time to reference speed."""
        inside = sum(self.samples[mark:])
        while len(self.samples) < MIN_SAMPLES:
            self._sample(None, None)
        window = sorted(self.samples[min(mark, len(self.samples) - MIN_SAMPLES):])
        trim = len(window) // 10  # probes that a GC pause or interrupt stretched
        return inside, REFERENCE_PROBE_S / statistics.fmean(window[trim:len(window) - trim])
