"""The exhaustive classical scan, in numpy.

enumerate_assignments_max scans every deterministic assignment for the
first player and pairs it with the best reply of the second.  Sums are
accumulated in ascending index order, so the result is bit-identical to
a two-sided scan over both players' assignments.
"""

from __future__ import annotations

import numpy as np


def active_backend() -> str:
    """Name of the implementation behind the kernels: always "numpy".

    Kept for the benchmark's environment block: perfbench/gen.py imports
    this function, and perfbench/tracing.py wraps enumerate_assignments_max
    by that name, so both names must stay.
    """
    return "numpy"


def enumerate_assignments_max(reward, chunk: int = 4096):
    """Max over assignments f of sum_y max_b sum_x reward[x, f(x), y, b].

    reward has shape (N, K, N, K) indexed (x, a, y, b).  Assignments are
    enumerated as base-K counters with input 0 as the most significant
    digit.  Sums over x and y run in ascending index order.
    """
    reward = np.asarray(reward, dtype=np.float64)
    n_in, n_out = reward.shape[0], reward.shape[1]
    total = n_out**n_in
    place = n_out ** (n_in - 1 - np.arange(n_in, dtype=np.int64))
    best = -np.inf
    for lo in range(0, total, chunk):
        ms = np.arange(lo, min(lo + chunk, total), dtype=np.int64)
        digits = (ms[:, None] // place[None, :]) % n_out
        gains = np.zeros((ms.shape[0], n_in, n_out), dtype=np.float64)
        for x in range(n_in):
            gains += reward[x, digits[:, x]]
        row_best = gains.max(axis=2)
        vals = np.zeros(ms.shape[0], dtype=np.float64)
        for y in range(n_in):
            vals += row_best[:, y]
        chunk_best = float(vals.max())
        if chunk_best > best:
            best = chunk_best
    return best
