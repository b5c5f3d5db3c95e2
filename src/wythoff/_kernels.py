"""Point matching along a sorted projection, minimum separation on a cell grid.

Both kernels project the rows onto a fixed generic orthonormal frame, cached
per dimension.  An orthonormal projection never lengthens a distance, so two
rows within r of each other have projections within r on every frame axis.
Each kernel applies the exact test, ((a - b) ** 2).sum(axis=1), to every pair
whose projections pass that necessary test, and so returns what a full
distance matrix would, to the bit.  Computed projections are off by a few
ulps of the row norms; every window and cell is widened by _pad, far more.

match_rows sorts ref along the frame's first axis and compares each point
with the rows whose projection lies within tol of its own.  On the orbits of
a reflection group a generic axis separates almost every projection, so at a
matching tolerance a point has one or two candidates.

min_pairwise_distance starts from delta, the distance from row 0 to its
nearest row.  That is a real pair, so delta bounds the answer from above.
The rows are bucketed into cells of side delta on up to four frame axes, and
two rows within delta lie in the same or in adjacent cells.  In the integer
cell key the first axis has stride one, so the three cells around a cell
along that axis hold a run of sorted rows.  Each row is compared with the
later rows of its own and the next cell along the first axis, and with one
such run per forward offset on the other axes (one of each opposite pair);
one searchsorted finds all of them.  On a vertex orbit delta is the answer,
and a cell holds about one row.  No module of the package calls it: the
root closure deduplicates exact integer roots (reflection_group), and
realize reads the vertices' separation off the edges (geometry).  It stays
because the benchmark's kernel timing (perfbench/pipeline.py, time_kernels)
calls it.

The worst case of both is rows that crowd one window or a few cells: ties in
projection, a delta far above the answer, or a side raised so that the cell
keys fit in int64.  Those rows are compared pairwise, O(V^2) like a full
distance matrix, in memory bounded by _BLOCK pairs at a time.

found_at is the one test of membership in sorted integer keys, read at
their searchsorted positions; face_lattice's flag moves are its one
caller.  The library calls no numpy dedup:
np.unique (and np.intersect1d, which calls it) builds a hash set before it
sorts, and face_lattice.coset_pairs needs no dedup, since it keys one
element of each coset pair.
"""

import functools
import itertools

import numpy as np

_BLOCK = 1 << 14
_GRID_AXES = 4


@functools.lru_cache(maxsize=None)
def _frame(dim):
    """Generic orthonormal (dim, min(dim, _GRID_AXES)) frame, read-only."""
    f = np.random.default_rng(0).standard_normal((dim, min(dim, _GRID_AXES)))
    f = np.ascontiguousarray(np.linalg.qr(f)[0])
    f.setflags(write=False)
    return f


@functools.lru_cache(maxsize=None)
def _forward_offsets(r):
    """Zero, then each r-digit offset in {-1, 0, 1} whose first nonzero digit is 1.

    Of every pair of opposite neighbour offsets exactly one is listed.
    """
    offsets = np.array(list(itertools.product((-1, 0, 1), repeat=r)), dtype=np.int64)
    offsets = offsets.reshape(3**r, r)[3**r // 2 :]
    offsets.setflags(write=False)
    return offsets


def found_at(sorted_keys, keys, pos):
    """Which keys sit at their searchsorted positions pos in sorted_keys."""
    if not len(sorted_keys):
        return np.zeros(np.shape(keys), dtype=bool)
    return sorted_keys[np.minimum(pos, len(sorted_keys) - 1)] == keys


def _pad(*arrays):
    # computed projections are off by a few ulps of the row norms; widen
    # every projection window by far more than that so no candidate is lost
    return 1e-9 * max(np.abs(a).sum(axis=1).max() for a in arrays)


def _windows(lo, count):
    """Pairs (i, lo[i] + k) for 0 <= k < count[i], in blocks of at most _BLOCK."""
    ends = np.cumsum(count)
    total = int(ends[-1])
    for start in range(0, total, _BLOCK):
        flat = np.arange(start, min(start + _BLOCK, total))
        i = np.searchsorted(ends, flat, "right")
        yield i, lo[i] + flat - (ends[i] - count[i])


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
        u = _frame(points.shape[1])[:, 0]
        pr = ref @ u
        order = np.argsort(pr)
        pr = pr[order]
        pq = points @ u
        w = tol + _pad(points, ref)
        lo = np.searchsorted(pr, pq - w, "left")
        count = np.searchsorted(pr, pq + w, "right") - lo
        for q, pos in _windows(lo, count):
            r = order[pos]
            hit = ((points[q] - ref[r]) ** 2).sum(axis=1) <= tol * tol
            np.minimum.at(best, q[hit], r[hit])
    best[best == len(ref)] = -1
    return best


def min_pairwise_distance(points):
    """Smallest Euclidean distance between two distinct rows (inf if < 2)."""
    points = np.ascontiguousarray(points, dtype=np.float64)
    v = len(points)
    if v < 2:
        return np.inf
    best2 = float(((points[1:] - points[0]) ** 2).sum(axis=1).min())
    if best2 == 0:
        return 0.0
    p = points @ _frame(points.shape[1])
    p -= p.min(axis=0)
    q = p.shape[1]
    # cells of side delta, raised (never lowered) to at most 2^(60 // q)
    # cells per axis, so that a cell key and its neighbours' fit in int64
    side = max(np.sqrt(best2) + _pad(points), p.max() / 2.0 ** (60 // q))
    cell = (p / side).astype(np.int64)
    # base max + 3: a neighbour's digit, -1 or max + 1, names no real cell
    stride = (int(cell.max()) + 3) ** np.arange(q, dtype=np.int64)
    key = cell @ stride
    order = np.argsort(key)
    key, points = key[order], points[order]
    # one run per forward offset on the other axes: the rows whose key is
    # within one of key + shift, i.e. three cells along the first axis
    shift = _forward_offsets(q - 1) @ stride[1:]
    lo, count = np.searchsorted(key, key + (shift + np.array([[-1], [2]]))[..., None])
    lo[0] = np.arange(1, v + 1)  # shift 0 is a row's own run: its later rows only
    count -= lo
    for i, j in _windows(lo.ravel(), count.ravel()):
        best2 = min(best2, float(((points[i % v] - points[j]) ** 2).sum(axis=1).min()))
    return float(np.sqrt(best2))
