"""Host-speed calibration for timings taken on a shared, noisy machine.

On the 2-core shared machine this benchmark was tuned on, the host's speed
drifts by up to 2x over seconds to minutes: the calibration loop below took
18 to 33 ms within one minute. Eight 20-second chunks each repeated the
same ``ppo-train`` units. Their median raw ``sim_jobs_per_s`` had a
quartile spread of 32% of its median. Scaled by the loop time measured
before and after each unit, the spread was 3.2%. With only the loop's
pure-Python half it was 7.0%, and with only its numpy half 4.3%.

So every timed sample is bracketed by :func:`calibrate`, and its host
seconds are rescaled to *reference seconds*: seconds on a host that runs
the calibration loop in ``REFERENCE_S``. The loop uses only the standard
library and numpy, so a change to dqcsched cannot make it faster or slower.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.020
REPEATS = 2


def _loop() -> None:
    """Interpreter work (tuples, dict updates) and small-array numpy calls,
    the two kinds of work dqcsched's hot paths are made of."""
    table: dict[tuple[int, int], int] = {}
    acc = 0
    for i in range(40000):
        key = (i & 255, i % 7)
        table[key] = table.get(key, 0) + 1
        acc += key[0] * key[1]
    x = np.arange(8.0)
    mask = np.arange(8) < 6
    for _ in range(1000):
        shifted = np.where(mask, x, -np.inf)
        shifted = shifted - shifted[mask].max()
        e = np.where(mask, np.exp(shifted), 0.0)
        e /= e.sum()


def calibrate() -> float:
    """Mean seconds of the fixed calibration loop over ``REPEATS`` runs."""
    start = time.perf_counter()
    for _ in range(REPEATS):
        _loop()
    return (time.perf_counter() - start) / REPEATS


def reference_seconds(host_s: float, calibration_s: float) -> float:
    """``host_s`` measured while the loop took ``calibration_s``, rescaled."""
    return host_s * REFERENCE_S / calibration_s
