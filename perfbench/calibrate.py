"""A fixed pure-Python kernel that measures how fast the host runs right now.

The benchmark's timings are interpreter-bound, and on a shared host the
same op can take 1.8x longer in one minute than in the next (another
tenant on the sibling hyperthread, a frequency change).  Timing this
kernel next to every op and scaling the op's wall time by
``REFERENCE_S / kernel time`` reports the op at one fixed host speed: a
change of the package still moves the scaled time, a change of the host
mostly does not.  The kernel uses no package code, so no change to the
package can change it.

It mixes the kinds of work the workloads do: elimination on big
integers with gcd reduction, a 0/1 matrix product on Python ints,
products of small ``Fraction`` matrices and a ``json.dumps``.
"""

from __future__ import annotations

import json
import math
import random
import time
from fractions import Fraction

# Time of one kernel() call at the reference host speed.  Scaled times
# read as the wall time the same work would take on a host where the
# kernel takes this long (about the slower of the two speeds a 2-vCPU
# Xeon VM switches between).
REFERENCE_S = 0.003

_rng = random.Random(20131024)
_BIG = [[_rng.getrandbits(48) for _ in range(6)] for _ in range(6)]
_BITS = [[_rng.randrange(2) for _ in range(24)] for _ in range(24)]
_RAT = [[Fraction(_rng.randrange(-4, 5), _rng.choice((1, 3))) for _ in range(4)] for _ in range(4)]


def kernel() -> int:
    a = [row[:] for row in _BIG]
    for c in range(len(a)):
        for i in range(c + 1, len(a)):
            x, y = a[c][c], a[i][c]
            a[i] = [y * u - x * v for u, v in zip(a[c], a[i])]
            g = 0
            for t in a[i]:
                g = math.gcd(g, t)
            if g > 1:
                a[i] = [t // g for t in a[i]]
    cols = list(zip(*_BITS))
    prod = [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in _BITS]
    m = _RAT
    for _ in range(3):
        m = [[sum((m[i][k] * _RAT[k][j] for k in range(4)), Fraction(0)) for j in range(4)] for i in range(4)]
    return len(json.dumps({"a": [str(t) for t in a[-1]], "p": prod[0], "m": str(m[0][0])}))


def kernel_seconds() -> float:
    """Wall time of one kernel() call."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
