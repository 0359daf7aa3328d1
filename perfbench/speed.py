"""Machine-speed reference for the end-to-end times.

On a 2-core host shared with other tenants, the speed of one thread was
seen to drift by 20 % within a minute and by up to 80 % between minutes, in
CPU time as much as in wall time.  Every end-to-end time is therefore
scaled by REFERENCE_S / c, where c is the wall time of `reference_loop`
averaged over one pass of the loop just before and one just after the
timed span.  The loop is fixed pure-Python work of the kinds the program
spends its time on (Fraction arithmetic, big-integer multiply and reduce,
float distance scans), so it slows down with the machine but never with
the program.  A scaled time reads in seconds on a machine where the loop
takes REFERENCE_S; raw times are kept in the result files.
"""

from __future__ import annotations

import time
from fractions import Fraction

REFERENCE_S = 0.02

_BIG = 3 ** 3000
_MOD = 7 ** 2900
_POINTS = [(i * 0.618 % 1.0, i * 0.382 % 1.0) for i in range(120)]


def reference_loop() -> float:
    """Wall time of one pass of the fixed reference work."""
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 400):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    x = _BIG
    for i in range(200):
        x = (x * (x >> 9000) + i) % _MOD
    s = 0.0
    for j in range(60):
        t = (j / 60, (j * 7 % 60) / 60)
        s += min(max(min(abs(a - b), 1 - abs(a - b)) for a, b in zip(t, p)) for p in _POINTS)
    return time.perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor turning a time measured between two loop passes into
    reference seconds."""
    return REFERENCE_S / ((before + after) / 2)
