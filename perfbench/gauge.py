"""Host-speed gauge: a fixed slice of pure-Python work timed between items.

The shared host this benchmark was defined on drifts by ±15% over tens of
seconds (the same run of the same seed varies that much from one minute to
the next), and the engine's speed follows the host's.  The gauge runs the kind
of work the engine does — sparse polynomial products on ``Fraction``
coefficients in dicts keyed by exponent tuples — but none of the engine's
code; it runs with the cyclic GC off, so collections of the engine's
garbage are not counted as the gauge's.  Item times are rescaled to the
host speed at which the gauge takes ``REFERENCE_S``:

    reported = measured * REFERENCE_S / mean(gauge readings of the run)

and rates by the inverse.  Raw values are printed and kept in the result file
next to the adjusted ones.  In one ten-seed set the host's speed
changed 2.3x while ``jet_systems`` ran: raw items/s spread 42% (quartiles over
median), rescaled 5%.  Whole processes (the
``cli_corpus`` calls and the ``setup_s`` import probes) cannot host this
gauge; read in the parent between them it tracked their speed worse than no
gauge.  Their gauge is a bare interpreter start, ``python -c pass``, spawned
between them (every half second between calls, before every import probe) and
rescaled to ``REFERENCE_PROCESS_S``; in blocks of six calls it took the
spread of CLI call times from 14% to 6% (coefficient of variation).
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.010   # typical reading on the 2-core machine the bounds were sized on
REFERENCE_PROCESS_S = 0.065  # typical `python -c pass` on that machine
INTERVAL_S = 0.5      # at most one reading per half second of measured work

_A = {(i, j): Fraction(i + 2 * j + 1, j + 3) for i in range(7) for j in range(7 - i)}
_B = {(i, j): Fraction(3 * i - j + 5, i + 2) for i in range(6) for j in range(6 - i)}


def reading() -> float:
    """Seconds for one fixed slice of work.

    The cyclic GC is off while it runs, so a collection of the engine's
    garbage is paid inside the next item, not by the gauge."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(3):
            out = {}
            for (i1, j1), c1 in _A.items():
                for (i2, j2), c2 in _B.items():
                    key = (i1 + i2, j1 + j2)
                    out[key] = out.get(key, 0) + c1 * c2
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Gauge:
    """Readings of `read()` taken between items, at most one per INTERVAL_S."""

    def __init__(self, read):
        self.read = read
        self.readings = []
        self.spent = 0.0
        self._last = None

    def tick(self) -> None:
        now = time.perf_counter()
        if self._last is None or now - self._last >= INTERVAL_S:
            self.readings.append(self.read())
            self._last = time.perf_counter()
            self.spent += self._last - now


def factor(readings, reference: float) -> float:
    """Multiply a measured time by this to get the reported time.

    The mean, not the median: the host runs either at full speed or at about
    half of it (in-process readings near 4.7 ms or near 11 ms), and the mean
    weighs the two by the time a run spends in each.  In a ten- and a
    six-seed set, items/s rescaled by the median spread up to 0.22 on
    jet_systems and 0.24 on metric_ladder (quartiles over median); rescaled by
    the mean, 0.10 and 0.07."""
    return reference / statistics.fmean(readings)
