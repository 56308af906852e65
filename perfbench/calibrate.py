"""Machine-speed calibration of the timed ops.

On a shared VM the speed of the same op drifts by up to 1.8x, in swings
that last from seconds to minutes, with the load of the other tenants.
Reference work of the same kind as the program's (table lookups in a
GF(343) add table through a method, in a two-term recurrence) slows down
with it.  In probes of three to four minutes, such work correlated at
0.7 to 0.84 with a pp op run between samples, and dividing by it cut the
op's spread (quartile distance over median) from 0.26 to 0.09 when the
host was busy.

Calibrator.sample() times that work once; the benchmark takes a sample
before every op and after the last.  An op's time is reported at
reference speed: multiplied by REFERENCE_S / (the mean of the samples
just before and just after it).  REFERENCE_S is about the sample time
of a quiet 2-core 2.1 GHz Xeon VM.  The work is fixed and does not
import rdickson, so a change to the program never moves the scale.
"""

import time

REFERENCE_S = 0.016
Q, P = 343, 7
STEPS = 120_000


class Calibrator:
    """Holds the reference work's lookup table between samples.

    The table is digit-wise addition over GF(7^3) encodings, the size and
    layout of the program's own GF(343) add table, so a sample's lookups
    meet the same cache and memory contention as the ops do.
    """

    def __init__(self):
        digits = [tuple((a // P ** i) % P for i in range(3)) for a in range(Q)]
        self.table = [
            sum(((x + y) % P) * P ** i
                for i, (x, y) in enumerate(zip(digits[a], digits[b])))
            for a in range(Q) for b in range(Q)]

    def add(self, a, b):
        return self.table[a * Q + b]

    def sample(self):
        """Seconds taken by the reference work, this time."""
        t0 = time.perf_counter()
        prev, cur = 2, 1
        for _ in range(STEPS):
            prev, cur = cur, self.add(cur, (prev * 5 + 3) % Q)
        if not 0 <= cur < Q:
            raise AssertionError("reference work left its range")
        return time.perf_counter() - t0


def scales(samples):
    """Reference-speed factors for the intervals between samples."""
    return [2 * REFERENCE_S / (a + b) for a, b in zip(samples, samples[1:])]
