"""A fixed calibration loop that measures how fast the machine runs right now.

The loop mixes interpreter-bound Python with small numpy matrix-vector
products, the same mix as the solvers' inner loops, so it slows down with
them when the host's cores slow down.  ``speed()`` is the machine's speed in
reference seconds per wall second: 1.0 when the loop takes ``REFERENCE_S``.
"""

import time

import numpy as np

REFERENCE_S = 1e-3  # the loop's wall time at the reference speed
REPEATS = 3  # the fastest of a few runs, so a preemption does not count

_RNG = np.random.default_rng(0)
_A = _RNG.standard_normal((100, 200))
_X = _RNG.standard_normal(200)


def _loop() -> float:
    total = 0.0
    for i in range(3200):
        total += i * 0.5
    x = _X.copy()
    for _ in range(40):
        x = _A.T @ (_A @ x)
        x /= np.linalg.norm(x)
        x = np.clip(x, -0.5, 0.5)
    return total + float(x[0])


def speed(clock=time.perf_counter) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        t0 = clock()
        _loop()
        best = min(best, clock() - t0)
    return REFERENCE_S / best
