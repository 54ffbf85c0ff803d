"""A fixed reference computation that measures the host's current speed.

On a shared host the speed of identical work drifts by up to 2x over
seconds to minutes.  The benchmark runs this kernel between verdicts and
reports times scaled to a host on which the kernel takes
``NOMINAL_S``, so that drift cancels and a change to the program does
not.  The kernel uses only the standard library, never ``fscsynth``, and
does the same kind of work as the verdicts: exact ``Fraction``
arithmetic on growing integers, list indexing and small calls.
"""

from __future__ import annotations

import time
from fractions import Fraction

#: the kernel's time on the host scale every reported time is given in:
#: about its median on a 2-vCPU Intel Xeon virtual machine, CPython 3.11
NOMINAL_S = 0.005

_SIZE = 11


def kernel() -> Fraction:
    """Solve a fixed dense 11x11 rational system exactly; return x[0]."""
    a = [
        [Fraction((3 * i + 5 * j) % 11 + (23 if i == j else 0), 37 + (i * j) % 7) for j in range(_SIZE)]
        + [Fraction(1, i + 2)]
        for i in range(_SIZE)
    ]
    for col in range(_SIZE):
        pivot = a[col]
        for r in range(col + 1, _SIZE):
            factor = a[r][col] / pivot[col]
            a[r] = [x - factor * y for x, y in zip(a[r], pivot)]
    x = [Fraction(0)] * _SIZE
    for i in reversed(range(_SIZE)):
        acc = a[i][_SIZE] - sum(a[i][j] * x[j] for j in range(i + 1, _SIZE))
        x[i] = acc / a[i][i]
    return x[0]


def timed(clock=time.perf_counter) -> float:
    """One run of the kernel, in seconds."""
    start = clock()
    kernel()
    return clock() - start
