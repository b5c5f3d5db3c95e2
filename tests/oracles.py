"""Second routes kept as test oracles for the library's flag and incidence checks.

Each flag, diamond, containment and root-permutation function here is the
route the library took before it switched to a cheaper exact one; tests
assert that both routes agree.  The flag routes list every flag
(flag_rows), which the library never does.  These are the only users of
scipy.  The element matrices, the reflection count and the Gram
definiteness test are independent views of the group and the diagram that
only tests read.  The group keeps only the root columns the library reads;
full_rows rebuilds every column, and element_index, compose and inverse
multiply by composing these rows, where the library walks rmult.  The
minimum separation by a walk along one sorted projection is the point
kernel's route before its cell grid.
"""

import functools
import itertools

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from wythoff import _kernels
from wythoff.diagram import gram_matrix
from wythoff.errors import ToleranceCollision
from wythoff.face_lattice import DiamondReport, FaceLattice, FlagReport, _walk_code
from wythoff.geometry import CheckReport
from wythoff.reflection_group import ROOT_MATCH_TOL, RootSystem


@functools.cache
def full_rows(g) -> np.ndarray:
    """(order, roots): row a is element a's permutation of the whole root list.

    The same layered fill as enumerate_group, over every column: by the BFS
    tree, the row of w = s_i p is s_i applied to the row of p, filled in
    order of word length.  Kept per group for the session, like the suite's
    shared groups.
    """
    gens = g.roots.perms
    parent = g._parent.astype(np.int64)
    length = np.zeros(g.order, dtype=np.int64)
    up = parent
    while (up >= 0).any():
        length += up >= 0
        up = np.where(up >= 0, parent[up], -1)
    by_length = np.argsort(length, kind="stable")
    bounds = np.searchsorted(length[by_length], np.arange(1, length.max() + 2))
    rows = np.empty((g.order, g.roots.count), dtype=gens.dtype)
    rows[0] = np.arange(g.roots.count)
    for lo, hi in itertools.pairwise(bounds):
        idx = by_length[lo:hi]
        for i, gp in enumerate(gens):
            sel = idx[g._gen_of[idx] == i]
            rows[sel] = gp[rows[parent[sel]]]
    return rows


def group_matrices(g) -> np.ndarray:
    """Orthogonal matrix of every element of g, batched (order, n, n)."""
    s_inv = np.linalg.inv(g.roots.roots[g.roots.simple].T)
    t = g.roots.roots[full_rows(g)[:, g.roots.simple]]
    return np.einsum("gdj,je->gde", t.transpose(0, 2, 1), s_inv)


@functools.cache
def _row_index(g) -> dict:
    # kept per group for the session, like the suite's shared groups
    return {row.tobytes(): a for a, row in enumerate(full_rows(g))}


def element_index(g, row) -> int:
    """Index of the element of g with this permutation row; KeyError if none.

    A lookup on full_rows alone: it reads neither rmult nor any key.
    """
    rows = full_rows(g)
    a = _row_index(g).get(np.asarray(row).astype(rows.dtype).tobytes())
    if a is None or not np.array_equal(rows[a], row):
        raise KeyError("permutation is not a group element")
    return a


def compose(g, a: int, b: int) -> int:
    """Index of a*b (apply b, then a)."""
    rows = full_rows(g)
    return element_index(g, rows[a][rows[b]])


def inverse(g, a: int) -> int:
    row = full_rows(g)[a]
    inv = np.empty_like(row)
    inv[row] = np.arange(len(inv))
    return element_index(g, inv)


def reflection_count(g) -> int:
    """Number of elements acting as reflections (det -1, trace n-2)."""
    mats = group_matrices(g)
    dets = np.linalg.det(mats)
    traces = np.trace(mats, axis1=1, axis2=2)
    n = mats.shape[1]
    return int(
        np.count_nonzero((np.abs(dets + 1) < 1e-6) & (np.abs(traces - (n - 2)) < 1e-6))
    )


def is_positive_definite_gram(d, tol: float = 1e-9) -> bool:
    """Finite-type test by smallest Gram eigenvalue (> tol)."""
    return bool(np.linalg.eigvalsh(gram_matrix(d))[0] > tol)


def perms_of_generators(roots: RootSystem, normals: np.ndarray) -> list[np.ndarray]:
    """Permutation each generating reflection induces on the root list.

    Every root is reflected and matched again after the closure; root_system
    records the same permutations while it closes.
    """
    dtype = np.int16 if roots.count < 2**15 else np.int32
    out = []
    for v in normals:
        r = np.eye(len(v)) - 2.0 * np.outer(v, v)
        images = roots.roots @ r.T
        hits = _kernels.match_rows(images, roots.roots, ROOT_MATCH_TOL)
        if (hits < 0).any():
            raise ToleranceCollision("reflected root missing from root set")
        perm = hits.astype(dtype)
        if len(np.unique(perm)) != roots.count:
            raise ToleranceCollision("root reflection is not a permutation")
        out.append(perm)
    return out


def flag_rows(lat: FaceLattice) -> np.ndarray:
    """Every flag as a row of global face ids, one column per rank.

    Row c |G| + g is the flag (c, g): the cosets of g in the slots of
    ordering c, the numbering flag_partners uses.
    """
    blocks = [
        np.stack(
            [
                slots[i].table.coset_id.astype(np.int32) + np.int32(slots[i].offset)
                for slots, i in zip(lat.slots_by_rank, chain)
            ],
            axis=1,
        )
        for chain in lat.chains
    ]
    return np.vstack(blocks)


def _flag_pairings(rows: np.ndarray):
    """Per-rank partner edges, or None unless every group has size 2."""
    count, n = rows.shape
    per_rank = []
    for k in range(n):
        cols = [rows[:, j] for j in range(n) if j != k]
        if cols:
            order = np.lexsort(tuple(cols[::-1]))
            key = rows[order][:, [j for j in range(n) if j != k]]
            diff = np.any(key[1:] != key[:-1], axis=1)
            starts = np.flatnonzero(np.concatenate(([True], diff)))
        else:
            order = np.arange(count)
            starts = np.array([0])
        sizes = np.diff(np.append(starts, count))
        if not np.all(sizes == 2):
            return None
        per_rank.append(np.stack([order[starts], order[starts + 1]], axis=1))
    return per_rank


def _flag_graph_direct(lat: FaceLattice):
    """The explicit flag graph: its FlagReport and (n, flags) partner table.

    The partner table is None when some flag lacks exactly one neighbor of
    some rank.
    """
    rows = flag_rows(lat)
    count, n = rows.shape
    per_rank = _flag_pairings(rows)
    if per_rank is None:
        return FlagReport(count, len(lat.chains), False, False, "direct"), None
    partners = np.empty((n, count), dtype=np.int64)
    for k, edges in enumerate(per_rank):
        partners[k, edges[:, 0]] = edges[:, 1]
        partners[k, edges[:, 1]] = edges[:, 0]
    graph = sp.coo_matrix(
        (np.ones(n * count, dtype=np.int8), (np.tile(np.arange(count), n), partners.ravel())),
        shape=(count, count),
    )
    ncomp, _ = connected_components(graph, directed=False)
    return FlagReport(count, len(lat.chains), True, ncomp == 1, "direct"), partners


def generator_face_actions(lat: FaceLattice) -> np.ndarray:
    """(n_gens, face_total) table: face id -> image face id under r_i.

    r_i maps the face rep W_J to the coset (r_i rep) W_J.
    """
    g = lat.group
    rows = full_rows(g)
    out = np.empty((g.n_gens, lat.face_total), dtype=np.int32)
    for sl in lat.slots_by_rank:
        for s in sl:
            for gi, gp in enumerate(g.roots.perms):
                images = [element_index(g, gp[rows[r]]) for r in s.table.reps]
                new = s.table.coset_id[images]
                out[gi, s.offset : s.offset + s.count] = new + s.offset
    return out


def _is_flag_transitive_by_orbit(lat: FaceLattice) -> bool:
    """Flag-transitivity by closing the orbit of one flag under the generators.

    An orbit has at most group-order flags, so more flags than elements is
    an immediate no.
    """
    rows = flag_rows(lat)
    if len(rows) > lat.group.order:
        return False
    acts = generator_face_actions(lat)
    index = {r.tobytes(): i for i, r in enumerate(rows)}
    visited = [False] * len(rows)
    visited[0] = True
    frontier = [0]
    while frontier:
        batch = rows[frontier]
        nxt = []
        for gi in range(acts.shape[0]):
            for img in acts[gi][batch]:
                j = index[img.tobytes()]
                if not visited[j]:
                    visited[j] = True
                    nxt.append(j)
        frontier = nxt
    return all(visited)


def _diamond_by_sparse(lat: FaceLattice) -> DiamondReport:
    """Diamond report from sparse cover-matrix products.

    Within one lower face the violations come in scipy's product order.
    """
    n = lat.n
    counts = [sum(s.count for s in sl) for sl in lat.slots_by_rank]
    offsets = [lat.slots_by_rank[k][0].offset if lat.slots_by_rank[k] else 0
               for k in range(n + 1)]
    mats = [sp.csr_matrix(np.ones((1, counts[0]), dtype=np.int64))]
    lo_rank = np.empty(lat.face_total, dtype=np.int64)
    for k, sl in enumerate(lat.slots_by_rank):
        for s in sl:
            lo_rank[s.offset : s.offset + s.count] = k
    cov = lat.covers
    ranks_of_lo = lo_rank[cov[:, 0]]
    for k in range(n):
        sel = ranks_of_lo == k
        rows = cov[sel, 0] - offsets[k]
        cols = cov[sel, 1] - offsets[k + 1]
        mats.append(
            sp.csr_matrix(
                (np.ones(len(rows), dtype=np.int64), (rows, cols)),
                shape=(counts[k], counts[k + 1]),
            )
        )
    checked = 0
    violations = []
    for k in range(n):
        prod = (mats[k] @ mats[k + 1]).tocoo()
        checked += prod.nnz
        bad = prod.data != 2
        if bad.any():
            for r, c, v in zip(
                prod.row[bad][:10], prod.col[bad][:10], prod.data[bad][:10]
            ):
                lower = None if k == 0 else int(r + offsets[k - 1])
                violations.append((lower, int(c + offsets[k + 1]), int(v)))
    return DiamondReport(checked, violations)


def _containment_by_sparse(real) -> CheckReport:
    """Containment from sparse face-vertex incidence products."""
    lat = real.lattice
    nv = len(real.points)
    mats = []
    sizes = []
    offsets = []
    for sl in lat.slots_by_rank:
        rows = []
        cols = []
        size = np.empty(sum(s.count for s in sl), dtype=np.int64)
        base = sl[0].offset
        for s in sl:
            fv = real.slot_vertices(s)
            rows.append(np.repeat(np.arange(s.count) + (s.offset - base), fv.shape[1]))
            cols.append(fv.ravel())
            size[s.offset - base : s.offset - base + s.count] = fv.shape[1]
        mats.append(
            sp.csr_matrix(
                (
                    np.ones(sum(len(r) for r in rows), dtype=np.int64),
                    (np.concatenate(rows), np.concatenate(cols)),
                ),
                shape=(len(size), nv),
            )
        )
        sizes.append(size)
        offsets.append(base)
    lo_rank = np.empty(lat.face_total, dtype=np.int64)
    for sl in lat.slots_by_rank:
        for s in sl:
            lo_rank[s.offset : s.offset + s.count] = s.rank
    cov = lat.covers
    checked = 0
    violations = 0
    for k in range(lat.n):
        sel = lo_rank[cov[:, 0]] == k
        if not sel.any():
            continue
        lo = cov[sel, 0] - offsets[k]
        hi = cov[sel, 1] - offsets[k + 1]
        inter = (mats[k] @ mats[k + 1].T).tocsr()
        got = np.asarray(inter[lo, hi]).ravel()
        checked += len(lo)
        violations += int(np.sum(got != sizes[k][lo]))
    return CheckReport(
        "containment", violations == 0, {"covers": checked, "violations": violations}
    )


def _lattices_isomorphic_per_flag(a: FaceLattice, b: FaceLattice) -> bool:
    """Isomorphism by trying every flag of b as the start of the walk.

    The partners come from the listed flags, not from the library's moves.
    """
    if a.f_vector != b.f_vector or a.flag_count() != b.flag_count():
        return False
    ref = _walk_code(_flag_graph_direct(a)[1].T.tolist(), 0)
    pb = _flag_graph_direct(b)[1].T.tolist()
    return any(_walk_code(pb, s, ref) is not None for s in range(len(pb)))


def min_pairwise_by_projection(points) -> float:
    """Smallest distance between two distinct rows, walking one sorted projection.

    Rows are sorted along a generic unit direction u, and each row is
    compared with its k-th successor for k = 1, 2, ... while their projections
    lie within the best distance so far; |x.u - y.u| <= |x - y|, so no nearer
    pair is skipped.  The squared distances use the kernel's expression.
    """
    points = np.ascontiguousarray(points, dtype=np.float64)
    if len(points) < 2:
        return np.inf
    u = np.random.default_rng(0).standard_normal(points.shape[1])
    p = points @ (u / np.linalg.norm(u))
    order = np.argsort(p)
    p, points = p[order], points[order]
    pad = 1e-9 * np.abs(points).sum(axis=1).max()
    best2 = np.inf
    i = np.arange(len(points) - 1)  # rows whose partner k places on may still be nearer
    k = 1
    while len(i):
        best2 = min(best2, float(((points[i + k] - points[i]) ** 2).sum(axis=1).min()))
        k += 1
        i = i[i + k < len(points)]
        i = i[p[i + k] - p[i] <= np.sqrt(best2) + pad]
    return float(np.sqrt(best2))
