"""Host-speed calibration.

The benchmark runs on a shared host whose speed swings by up to 1.7x
within a second and drifts by a third over minutes, which no run of under
a minute can average away.  A fixed reference loop, independent of
polyscat, is sampled after every set-up and every operation of a timed
run.  The run's times are then scaled by how much slower or faster than
nominal the reference ran on average over the run.  A calibrated time
reads seconds at the host speed where one reference loop takes
``REFERENCE_NOMINAL_S``.

Medians over the run's operations absorb the sub-second swings; the
calibration takes out the slow drift.  Calibrating each operation by the
samples next to it instead was tried and was worse: a sample of a few
tenths of a second is itself at the mercy of the swings.

The loop mixes the kinds of work the library does: interpreted scalar
arithmetic, small numpy array operations and a Qhull convex hull.
"""

from __future__ import annotations

import math
from time import perf_counter

import numpy as np
from scipy.spatial import ConvexHull

REFERENCE_NOMINAL_S = 0.0144  # median of one reference loop on the baseline host
# A reference sample runs for a tenth of the operation just measured, and
# at least 0.1 s, so the samples cover about a tenth of the run.
REFERENCE_SHARE = 0.1
REFERENCE_MIN_S = 0.1

_rng = np.random.default_rng(20240601)
_POINTS = _rng.standard_normal((40, 3))
_VECTOR = _rng.standard_normal(49)
_ANGLES = _rng.uniform(0.0, math.pi, 64)


def reference_loop():
    total = 0.0
    for _ in range(180):
        for a in _ANGLES:
            total += math.sin(a) * math.cos(a) + a * a
        basis = np.cos(np.outer(_ANGLES[:7], np.arange(7))).ravel()
        total += float(basis @ _VECTOR)
    for _ in range(70):
        total += ConvexHull(_POINTS).volume
    return total


def reference_seconds(after_seconds=0.0):
    """One reference sample: the mean time of one reference loop, over a
    sample that lasts a tenth of ``after_seconds``, the wall time of the
    set-up or operation just measured.

    A mean, not a median: the operations it calibrates also sum over the
    host's fast and slow moments.
    """
    duration = max(REFERENCE_MIN_S, REFERENCE_SHARE * after_seconds)
    loops = 0
    t0 = perf_counter()
    while True:
        reference_loop()
        loops += 1
        elapsed = perf_counter() - t0
        if elapsed >= duration:
            return elapsed / loops


def calibrated(seconds, reference):
    """``seconds`` measured while one reference loop took ``reference`` on average."""
    return seconds * REFERENCE_NOMINAL_S / reference
