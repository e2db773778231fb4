"""A fixed reference computation that tracks the host's current speed.

On a shared virtual machine the same work can take 20-40% longer for
minutes at a time, because other tenants load the host.  The benchmark
therefore times this reference right before each operation and reports
timings in units of it: an operation that took 3.2 reference-times is
reported as 3.2 * REF_MS, its duration at the reference machine's speed.
The references taken right before and right after an operation bracket it.
A change to gsphase moves the operation's time and not the reference's, so
it shows in full; a slower host slows both and cancels.  The reference mixes
the three kinds of work the library does: a pure-Python complex loop (the
erf and criterion code), numpy ``exp``/``einsum`` on complex arrays (the
transforms and filters) and float ``repr``/``join`` (the CSV writer).
"""

from __future__ import annotations

import time

import numpy as np

#: milliseconds one reference computation takes on the reference machine
#: (2-vCPU Xeon VM, Python 3.11.7, numpy 2.4.6; see README.md)
REF_MS = 25.0


class HostSpeed:
    def __init__(self):
        rng = np.random.default_rng(5)
        self._a = rng.random((64, 257)) + 1j * rng.random((64, 257))
        self._w = rng.random((257, 257)) + 0j
        self._once()  # first-call costs stay out of the samples
        self.samples: list[float] = []

    def _once(self) -> float:
        t0 = time.perf_counter()
        z, acc = 0.3 + 0.2j, 0j
        for i in range(6000):
            acc += z ** 3 / (i + 1) - abs(z) * acc * 1e-9
        ph = np.exp(1j * self._a)
        np.einsum("mi,ij,mj->m", ph, self._w, ph)
        ",".join(repr(float(x)) for x in self._a.real.ravel()[:4000])
        return time.perf_counter() - t0

    def factor(self) -> float:
        """REF_MS over the median sample: multiplies seconds into reference seconds."""
        ordered = sorted(self.samples)
        return REF_MS / (1000.0 * ordered[len(ordered) // 2])

    def sample(self, n: int = 1) -> list[float]:
        """Seconds of ``n`` (at least one) reference computations, also kept in ``samples``."""
        times = [self._once() for _ in range(max(1, n))]
        self.samples.extend(times)
        return times
