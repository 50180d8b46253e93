"""Host-speed reference for the benchmark's time metrics.

The benchmark runs on a few vCPUs of a shared host whose speed swings by up
to 2x within seconds as other tenants load the same cores; CPU time swings
with wall time, so neither can be compared across runs as it stands.  A
fixed pure-Python reference block (integer arithmetic, a dict and
``Fraction`` sums; standard library only, no carnot code) is therefore timed
between tasks and around each set-up step, and every time metric is scaled
to the speed at which the block takes ``REF_MS``:

    scaled time = measured time * REF_MS / (time of the reference blocks
                                            around the measurement)

A carnot change that makes a task faster lowers its scaled time by the same
share, since the block does not run carnot code.  The raw wall-clock figures
and the reference times are printed beside every result.
"""

import statistics
import time
from fractions import Fraction

REF_MS = 3.0    # the block's time on the 2-vCPU Xeon (2.1 GHz) VM the benchmark was tuned on


def reference_block():
    s, d = 0, {}
    for i in range(20000):
        s += i * i % 7
        d[i & 255] = s
    q = Fraction(0)
    for i in range(1, 300):
        q += Fraction(i % 7 + 1, i)
    return s, q


def ref_time(blocks=1):
    """Median wall time of ``blocks`` reference blocks, in seconds."""
    times = []
    for _ in range(blocks):
        t0 = time.perf_counter()
        reference_block()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scale(before, after):
    """Factor that turns a time measured between two reference timings into
    reference-speed time."""
    return 1e-3 * REF_MS / (0.5 * (before + after))
