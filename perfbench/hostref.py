"""Host-speed reference: a fixed stdlib-only kernel timed between jobs.

The kernel does ``Fraction`` arithmetic plus dict and tuple work, the same
kinds of interpreter work augvar does, and calls no augvar code.  Shared
hosts drift in speed by tens of percent within seconds, so every job's
latency is rescaled to a nominal host by the kernel times measured right
before and right after it; the gated ``*_hostnorm`` metrics and ``setup_s``
use the rescaled times.
"""

from fractions import Fraction
from time import perf_counter

# Kernel time of a nominal host, in ms; the rescaling target.
NOMINAL_MS = 2.5


def kernel():
    acc = Fraction(0)
    table = {}
    for i in range(1, 220):
        x = Fraction(i, i + 7) * Fraction(2 * i + 1, 3 * i + 2)
        acc += x
        key = (i % 17, i % 5, i & 3)
        table[key] = table.get(key, 0) + x.numerator % 97
    return acc, len(table)


def measure_ms():
    """One kernel run, in ms."""
    t0 = perf_counter()
    kernel()
    return (perf_counter() - t0) * 1000.0
