"""Point matching by sorted projection: tolerance row matching and min separation.

Rows are sorted by their projection onto one fixed generic unit direction u.
A projection never lengthens a distance, |x.u - y.u| <= |x - y|, so only rows
close in that order can be close in space, and only those get the exact
squared-distance test: the answers are those of a full distance matrix.  On
the orbits of a reflection group a generic u separates almost every
projection, so at a matching tolerance a row has one or two candidates.  The
worst case is rows that tie in projection: they are compared pairwise, O(V^2)
like a full distance matrix, in memory bounded by _BLOCK pairs at a time.
"""

import numpy as np

_BLOCK = 1 << 18


def _direction(dim):
    u = np.random.default_rng(0).standard_normal(dim)
    return u / np.linalg.norm(u)


def _pad(*arrays):
    # computed projections are off by a few ulps of the row norms; widen
    # every projection window by far more than that so no candidate is lost
    return 1e-9 * max(np.abs(a).sum(axis=1).max() for a in arrays)


def match_rows(points, ref, tol):
    """Lowest index of a row of ref within tol of each row of points, else -1.

    Matching is by Euclidean distance (d^2 <= tol^2); callers are responsible
    for keeping tol well below the minimum separation of ref (see
    min_pairwise_distance).
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    ref = np.ascontiguousarray(ref, dtype=np.float64)
    best = np.full(len(points), len(ref), dtype=np.int64)
    if len(points) and len(ref):
        u = _direction(points.shape[1])
        pr = ref @ u
        order = np.argsort(pr)
        pr = pr[order]
        pq = points @ u
        w = tol + _pad(points, ref)
        lo = np.searchsorted(pr, pq - w, "left")
        count = np.searchsorted(pr, pq + w, "right") - lo
        ends = np.cumsum(count)
        for start in range(0, int(ends[-1]), _BLOCK):
            flat = np.arange(start, min(start + _BLOCK, int(ends[-1])))
            q = np.searchsorted(ends, flat, "right")
            r = order[lo[q] + flat - (ends[q] - count[q])]
            hit = ((points[q] - ref[r]) ** 2).sum(axis=1) <= tol * tol
            np.minimum.at(best, q[hit], r[hit])
    best[best == len(ref)] = -1
    return best


def min_pairwise_distance(points):
    """Smallest Euclidean distance between two distinct rows (inf if < 2)."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    if len(points) < 2:
        return np.inf
    p = points @ _direction(points.shape[1])
    order = np.argsort(p)
    p, points = p[order], points[order]
    pad = _pad(points)
    best2 = np.inf
    i = np.arange(len(points) - 1)  # rows whose partner k places on may still be nearer
    k = 1
    while len(i):
        best2 = min(best2, float(((points[i + k] - points[i]) ** 2).sum(axis=1).min()))
        k += 1
        i = i[i + k < len(points)]
        i = i[p[i + k] - p[i] <= np.sqrt(best2) + pad]
    return float(np.sqrt(best2))
