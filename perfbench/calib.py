"""Speed calibration: a fixed exact-arithmetic process timed beside the jobs.

The benchmark runs on a few cores of a shared host whose speed shifts by
15-30% for tens of seconds at a time as other tenants come and go: an identical
h2scan job, repeated for five minutes, ran at 0.61 s for half a minute and
then at 0.35-0.57 s.  So run.py spawns this file between jobs, takes the
median of its wall times over a pass, and reports every time of that pass
scaled to the reference speed: measured seconds times REFERENCE_S over that
median.  A pass run while this process takes exactly REFERENCE_S reads as
measured.

The kernel is sparse Fraction elimination of a fixed seeded matrix, the mix
of interpreter start-up, Fraction arithmetic and dict traffic the program's
jobs spend their time on.  It never imports lieobstruct, so a change to the
program cannot change the yardstick.

    python3 perfbench/calib.py
"""

from __future__ import annotations

import random
from fractions import Fraction

# median wall time of one spawn of this file on the 2-vCPU shared host the
# baseline was recorded on (Python 3.11)
REFERENCE_S = 0.25
SIZE = 44


def eliminate(n: int) -> int:
    """Rank of a fixed seeded sparse n x n integer matrix, by Fraction
    elimination."""
    rng = random.Random(1)
    rows = [
        {j: Fraction(rng.randint(-3, 3)) for j in range(n) if rng.random() < 0.5}
        for _ in range(n)
    ]
    pivots: dict = {}
    for row in rows:
        row = {k: v for k, v in row.items() if v}
        while row:
            p = min(row)
            piv = pivots.get(p)
            if piv is None:
                pivots[p] = row
                break
            f = row[p] / piv[p]
            for k, v in piv.items():
                x = row.get(k, 0) - f * v
                if x:
                    row[k] = x
                else:
                    row.pop(k, None)
    return len(pivots)


if __name__ == "__main__":
    eliminate(SIZE)
