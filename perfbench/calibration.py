"""A fixed reference computation that measures how fast the host runs now.

The benchmark's host is shared: its speed for the same Python code drifts
by tens of percent over minutes. ``run.py`` therefore times ``calibrate``
before the first repetition of a run and after each one, and scales each
repetition's times by ``REFERENCE_S`` over the mean of the calibration
times on either side of it, which gives them as they would read at the
speed where ``calibrate`` takes ``REFERENCE_S``.

The work imitates paretoq's own: a tabular, two-objective temporal
difference loop of small numpy operations, a weighted-sum score by
``np.dot`` (which lets the interpreter lock go, as ``Scalarization.score``
does), dict updates and a bounded FIFO list. It does not touch paretoq, so
no change to paretoq moves it. Do not change it either: every scaled time
is relative to it.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

ROUNDS = 110_000
REFERENCE_S = 1.0


def reference_work(rounds: int) -> float:
    q = np.zeros((16, 4, 2))
    w = np.array([0.5, 0.5])
    buffer = []
    visits = {}
    s = 0
    for i in range(rounds):
        a = int(np.argmax(q[s] @ w)) if i % 5 else i % 4
        r = np.array([float((s * 7 + a) % 3), float((s + a * 5) % 4)])
        score = float(np.dot(w, r))
        s2 = (s * 3 + a + i) % 16
        q[s, a] += 0.1 * (r + q[s2, int(np.argmax(q[s2] @ w))] - q[s, a])
        buffer.append((s, a, r, s2))
        visits[(s, a)] = visits.get((s, a), 0.0) + score
        if len(buffer) > 500:
            del buffer[0]
        s = s2
    return float(q.sum())


def calibrate(workers: int) -> float:
    """Seconds that ``reference_work(ROUNDS)`` takes now, split over ``workers`` threads.

    A workload whose operation runs in a thread pool is calibrated with a
    pool of the same size, so that the cost of the threads taking turns at
    the interpreter lock, which varies with the host as well, is in both.
    """
    start = time.perf_counter()
    if workers == 1:
        reference_work(ROUNDS)
    else:
        with ThreadPoolExecutor(workers) as pool:
            list(pool.map(reference_work, [ROUNDS // workers] * workers))
    return time.perf_counter() - start
