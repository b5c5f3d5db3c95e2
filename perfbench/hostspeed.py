"""A gauge of the machine's current speed, from a fixed reference computation.

The benchmark was defined on a shared 2-CPU machine whose speed moved by
25 to 40% between windows of a few seconds, and stayed slow for minutes at
a time, for every kind of work alike.  The gauge times a fixed mix of
interpreted Python (a dictionary count and a sort, like the group and
lattice code) and small numpy work (pairwise distances and an SVD, like the
geometry code).  It uses nothing from the program, so no change to the
program moves it.

A timed span is scaled by ``REFERENCE_S`` over the mean of the gauge
readings just before and just after it.  The result is the span's seconds
at the speed at which the gauge takes ``REFERENCE_S``: the speed of the
defining machine in its fast state.
"""

from __future__ import annotations

import time

import numpy as np

# the gauge's reading on the defining machine in its fast state
REFERENCE_S = 0.0085

_POINTS = np.random.default_rng(12345).random((160, 4))


def reference() -> float:
    """Seconds of one run of the reference computation."""
    t0 = time.perf_counter()
    table = {}
    for i in range(12000):
        key = (i % 97, i % 89)
        table[key] = table.get(key, 0) + 1
    sorted(table.items(), key=lambda kv: (kv[1], kv[0]))
    pts = _POINTS
    ((pts[:, None, :] - pts[None, :, :]) ** 2).sum(axis=-1).min()
    np.linalg.svd(pts - pts.mean(axis=0), full_matrices=False)
    return time.perf_counter() - t0


def gauge() -> float:
    """One reading: the faster of two reference runs, so that one interrupt
    does not decide it."""
    return min(reference(), reference())


def scale(before: float, after: float) -> float:
    """Factor from measured seconds to seconds at the reference speed."""
    return REFERENCE_S / ((before + after) / 2)
