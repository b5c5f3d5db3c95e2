"""Geometric realization and metric verification of Wythoff polytopes.

The base point is the solution of <n_i, x> = 1 on ringed nodes and 0 on
crossed nodes for the simple normals n_i (unit rows of the Cholesky factor
of the Gram matrix), rescaled to unit norm.  Vertices are its images under
the group; since vertices correspond to cosets of the point stabilizer,
coordinates are computed once per coset representative and every remaining
image is only audited against its representative, so no tolerance-driven
deduplication ever decides combinatorics.  The checks, the witnesses and
the exports read each face's vertices from the lattice (face_vertices).

The vertices' separation is read off the shortest edge: on a sphere the
closest pair is a hull edge (Matula and Sokal, 1980; Brown, 1979), and
distinct cosets are distinct points (Humphreys, Reflection Groups and
Coxeter Groups, 1.12).  See realize.

The faces of one slot form one orbit, the cosets g W_J, so one base face
decides its slot.  One rule (_slot_svd) measures it, for the affine rank
check and for the witnesses' ridge spans alike, and carries its verdict to
the slot's other faces g F when it clears its tolerance by a slack derived
from the audit deviation; the witnesses then decide each ridge slot from
its base ridge's reflection the same way.  A slot with a thinner margin is
checked face by face.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._kernels import match_rows
from .decoration import RING
from .errors import (
    DedupCollision,
    SingularSystem,
    SpanDeficient,
    UnsupportedDimension,
)
from .face_lattice import FaceLattice
from .reflection_group import ROW_BLOCK, simple_normals

POINT_MATCH_TOL = 1e-7       # image-vs-representative agreement
POINT_SEPARATION = 1e-3      # minimum distance between distinct vertices
INCIDENCE_TOL = 1e-10        # base point against its defining hyperplanes
CENTROID_TOL = 1e-9
AFFINE_RANK_TOL = 1e-7       # singular value cutoff for affine dimension
UNIFORM_EDGE_TOL = 1e-9      # relative spread of edge lengths
RIDGE_MATCH_TOL = 1e-7
FACET_NORM_TOL = 1e-9        # relative spread of facet centroid norms
# reflected points matched per match_rows call in the regularity witnesses;
# on the 120-cell, 2^14 rows ran faster than both 2^13 and 2^15 or more
WITNESS_ROWS = 1 << 14
# far above the rounding of an SVD, a reflection or a distance of the
# unit-scale rows realized here; the witnesses add it to every slack
ROUNDING = 1e-12


def wythoff_point(d) -> np.ndarray:
    """Unit-norm base point: on every crossed mirror, off every ringed one."""
    normals = simple_normals(d)
    rhs = np.array([1.0 if m == RING else 0.0 for m in d.marks])
    try:
        x = np.linalg.solve(normals, rhs)
    except np.linalg.LinAlgError as e:
        raise SingularSystem(str(e)) from e
    norm = np.linalg.norm(x)
    if norm < 1e-12:
        raise SingularSystem("base point collapsed to the origin")
    x = x / norm
    dots = normals @ x
    ringed = [i for i, m in enumerate(d.marks) if m == RING]
    crossed = [i for i in range(d.rank) if i not in ringed]
    if crossed and np.max(np.abs(dots[crossed])) > INCIDENCE_TOL:
        raise SingularSystem("base point misses a crossed mirror")
    rd = dots[ringed]
    if np.max(rd) - np.min(rd) > INCIDENCE_TOL * max(1.0, np.max(rd)):
        raise SingularSystem("ringed mirror distances are unequal")
    return x


@dataclass
class Realization:
    lattice: FaceLattice
    points: np.ndarray            # (V, dim); row i = rank-0 face with id i
    deviation: float              # largest |g x - its vertex's point| coordinate

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def slot_vertices(self, slot) -> np.ndarray:
        return self.lattice.face_vertices[slot.offset]

    @cached_property
    def edge_lengths(self) -> np.ndarray:
        """Length of every rank-1 face; realize and edge_uniformity_check read it."""
        return _edge_lengths(self.lattice, self.points)

    def image_error(self, m: int) -> float:
        """Bound on ||E||_F when face g F's m points are g times F's plus E.

        Face g F holds the vertices of the g h, h in F, and vertex(h) ->
        vertex(g h) maps F onto it.  realize audits every image w x against
        its vertex's point to within deviation per coordinate, so both the
        point of vertex(g h) and g times the point of vertex(h) lie within
        sqrt(dim) deviation of g h x (g is orthogonal): each row of E has
        norm at most 2 sqrt(dim) deviation.
        """
        return 2.0 * np.sqrt(m * self.dim) * self.deviation


def _edge_lengths(lat: FaceLattice, points: np.ndarray) -> np.ndarray:
    """Length of every rank-1 face, slot after slot.

    Each length is computed as np.linalg.norm and min_pairwise_distance
    compute a pair's distance (the root of the summed squared differences),
    so all three agree to the bit.
    """
    lengths = []
    for s in lat.slots_by_rank[1]:
        fv = lat.face_vertices[s.offset]
        seg = points.take(fv[:, 0], axis=0)
        seg -= points.take(fv[:, 1], axis=0)
        seg *= seg
        lengths.append(np.sqrt(seg.sum(axis=1)))
    return np.concatenate(lengths)


def realize(lat: FaceLattice) -> Realization:
    """Vertex coordinates of a built lattice, every image audited.

    Distinct vertices must lie POINT_SEPARATION apart, and the closest
    pair is an edge, so only the edges' vertex lists are read.  Every
    vertex lies on the unit sphere, and distinct cosets are distinct
    points: the base point's stabilizer is exactly W_J (Humphreys, 1.12).
    Let p, q be a closest pair and C the cap of the sphere within half
    their angle of their arc's midpoint.  A vertex in C other than p and q
    would lie nearer to p than q does, so the plane bounding C meets the
    hull in the segment pq alone.  This is the Gabriel property of the
    closest pair (Matula and Sokal, 1980), on a sphere, whose Delaunay
    cells are the hull's facets (Brown, 1979).
    """
    g = lat.group
    x = wythoff_point(lat.diagram)
    vt = lat.slots_by_rank[0][0].table
    points = g.point_images(x, vt.reps)
    # every image is audited against its representative by blocks of
    # elements, so no array of all |G| images is built
    deviation = 0.0
    for lo in range(0, g.order, ROW_BLOCK):
        block = g.point_images(x, slice(lo, lo + ROW_BLOCK))
        block -= points.take(vt.coset_id[lo : lo + ROW_BLOCK], axis=0)
        deviation = max(deviation, np.abs(block, out=block).max())
    if deviation > POINT_MATCH_TOL:
        raise DedupCollision(
            f"orbit image differs from its representative by {deviation:.2e}"
        )
    real = Realization(lat, points, float(deviation))
    gap = float(real.edge_lengths.min())
    if gap < POINT_SEPARATION:
        raise DedupCollision(f"distinct vertices only {gap:.2e} apart")
    return real


# -- verification reports ----------------------------------------------------


@dataclass
class CheckReport:
    name: str
    ok: bool
    detail: dict


def centroid_check(real: Realization) -> CheckReport:
    off = float(np.linalg.norm(real.points.mean(axis=0)))
    return CheckReport("centroid", off <= CENTROID_TOL, {"offset": off})


def affine_rank_check(real: Realization) -> CheckReport:
    """Affine dimension of each face's vertex set equals its lattice rank.

    One SVD per slot, on its base face W_J (coset 0), decides every face of
    the slot when its margin is positive (_slot_svd), the slack being
    image_error(m) for m vertices per face; a slot with a thinner margin
    runs the same SVD over all of its faces.

    detail: faces and the first violating ids per slot; margin, the least
    distance of a base singular value from AFFINE_RANK_TOL minus its slot's
    slack; per_face_slots, the slots whose margin was not positive.
    """
    lat = real.lattice
    checked = 0
    bad = []
    margin = np.inf
    per_face_slots = 0
    for sl in lat.slots_by_rank:
        for s in sl:
            checked += s.count
            if s.rank == 0:
                continue
            slack = real.image_error(lat.face_vertices[s.offset].shape[1])
            sv, slot_margin, _ = _slot_svd(real, s, slack)
            margin = min(margin, slot_margin)
            per_face_slots += slot_margin <= 0
            wrong = np.flatnonzero((sv > AFFINE_RANK_TOL).sum(axis=1) != s.rank)
            if wrong.size and slot_margin > 0:
                wrong = range(s.count)  # the base face's rank is every face's
            bad.extend(int(w) + s.offset for w in wrong[:10])
    detail = {"faces": checked, "violations": bad}
    detail.update(margin=float(margin), per_face_slots=per_face_slots)
    return CheckReport("affine_rank", not bad, detail)


def _slot_svd(real: Realization, s, slack: float, span: bool = False) -> tuple:
    """(sv, margin, vt): one slot's singular values, decided on its base face.

    The rows are a face's vertices, centered on their mean for its affine
    hull, or as they are for its linear span (span), which also returns the
    right singular vectors vt, else None.  sv and vt are the base face W_J's
    (coset 0) when margin, the least distance of a base singular value from
    AFFINE_RANK_TOL minus slack, is positive, and every face's otherwise.
    Face g W_J's points are g times the base face's, rows paired by
    vertex(h) -> vertex(g h), plus an error E (Realization.image_error).  g
    and the row order keep singular values and centering does not raise
    ||E||, so by Weyl's inequality each moves by at most ||E||_2 <=
    ||E||_F: when slack bounds ||E||_F and margin is positive, the base
    face's rank is every face's.  An infinite slack asks for every face.
    """
    fv = real.lattice.face_vertices[s.offset]
    margin = None
    for rows in (fv[:1], fv):
        pts = real.points.take(rows, axis=0)
        if span:
            _, sv, vt = np.linalg.svd(pts, full_matrices=True)
        else:
            sv, vt = np.linalg.svd(pts - pts.mean(axis=1, keepdims=True), compute_uv=False), None
        if margin is None:
            margin = float(np.abs(sv - AFFINE_RANK_TOL).min() - slack)
            if margin > 0:
                break
    return sv, margin, vt


def containment_check(real: Realization) -> CheckReport:
    """Vertex set of the lower face of each cover lies inside the upper's.

    Each upper slot's vertex lists become one membership table, read by
    direct address, so a list is read as a set in any order.  With m
    vertices a face and V vertices, a slot with V <= 8m gets a boolean
    (faces, V) table, at most twice the size of its int32 lists, and one
    gather answers each (upper face, lower-face vertex) pair.  Otherwise
    column v of an (r, V) int32 table lists the r faces of the slot that
    hold vertex v, in order, from one stable sort of the lists' vertex
    ids; each pair takes r probes.  Conjugate faces put every vertex in
    equally many faces of a slot, and only a corrupted list leaves a
    column short, padded with -1.

    It ties every face's vertex list to the covers in integers.
    affine_rank_check measures each slot's base face only and carries the
    verdict to face g W_J by g, within the Weyl bound 2 sqrt(m dim)
    deviation; a list that is not the g-image of the base face's list,
    such as one with a vertex swapped out, misses a face below it and fails
    here.
    """
    fv = real.lattice.face_vertices
    nv = len(real.points)
    blocks = real.lattice.cover_blocks
    # each table is dropped after the last block that reads it
    last = {hi.offset: b for b, (_, hi, _, _) in enumerate(blocks)}
    tables = {}
    covers = violations = 0
    for b, (lo, hi, i, j) in enumerate(blocks):
        if hi.offset not in tables:
            tables[hi.offset] = _membership_table(fv[hi.offset], nv)
        table = tables[hi.offset]
        if last[hi.offset] == b:
            del tables[hi.offset]
        want = fv[lo.offset].take(i, axis=0)
        if table.dtype == bool:
            hit = table.ravel().take(j[:, None] * nv + want)
        else:
            face = j.astype(np.int32)[:, None]
            hit = table[0].take(want) == face
            probe, eq = np.empty(want.shape, np.int32), np.empty_like(hit)
            for row in table[1:]:
                hit |= np.equal(row.take(want, out=probe), face, out=eq)
        # a row-wise all over a few columns is slow; a valid block skips it
        if np.count_nonzero(hit) < hit.size:
            violations += int(np.count_nonzero(~hit.all(axis=1)))
        covers += len(i)
    return CheckReport(
        "containment", violations == 0, {"covers": covers, "violations": violations}
    )


def _membership_table(lists: np.ndarray, nv: int) -> np.ndarray:
    """Which faces of one slot hold each vertex; see containment_check."""
    count, m = lists.shape
    if nv <= 8 * m:
        table = np.zeros((count, nv), dtype=bool)
        table[np.arange(count)[:, None], lists] = True
        return table
    # a stable sort of 8- or 16-bit integers is a radix sort
    order = np.argsort(lists.ravel().astype(np.min_scalar_type(nv)), kind="stable")
    held = np.bincount(lists.ravel(), minlength=nv)
    r = int(held.max())
    if np.all(held == r):
        return np.ascontiguousarray((order // m).reshape(nv, r).T, dtype=np.int32)
    table = np.full((r, nv), -1, dtype=np.int32)
    vertex = lists.ravel()[order]
    table[np.arange(len(order)) - (np.cumsum(held) - held)[vertex], vertex] = order // m
    return table


def _vertex_words(count: int) -> np.ndarray:
    """One fixed 64-bit word per vertex id 0..count-1: output v + 1 of splitmix64 from 0."""
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)
    z ^= z >> 30
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= z >> 27
    z *= np.uint64(0x94D049BB133111EB)
    z ^= z >> 31
    return z


def distinct_faces_check(real: Realization) -> CheckReport:
    """No two faces of the same rank share their whole vertex set.

    A face's key is the wrapping uint64 sum of one fixed word per vertex
    (_vertex_words), so it does not depend on the order of the face's
    list, and each list is read as a set.  Faces of one rank and one width
    whose keys differ hold different vertex sets.  Only the rows whose keys
    tie are compared exactly: each is sorted, the tied rows are put in
    lexicographic order, and every row equal to its predecessor is a
    duplicate.
    """
    words = _vertex_words(len(real.points))
    dup = 0
    for sl in real.lattice.slots_by_rank:
        by_width = {}
        for s in sl:
            fv = real.lattice.face_vertices[s.offset]
            by_width.setdefault(fv.shape[1], []).append(fv)
        for blocks in by_width.values():
            keys = np.concatenate([words.take(fv).sum(axis=1) for fv in blocks])
            order = keys.argsort()
            keys = keys.take(order)
            tie = keys[1:] == keys[:-1]
            if not tie.any():
                continue
            tied = np.zeros(len(keys), dtype=bool)
            tied[1:] = tie
            tied[:-1] |= tie
            rows = np.sort(np.concatenate(blocks).take(order[tied], axis=0), axis=1)
            rows = rows.take(np.lexsort(rows.T[::-1]), axis=0)
            dup += int(np.count_nonzero((rows[1:] == rows[:-1]).all(axis=1)))
    return CheckReport("distinct_faces", dup == 0, {"duplicates": dup})


def edge_uniformity_check(real: Realization) -> CheckReport:
    lengths = real.edge_lengths
    mean = float(lengths.mean())
    spread = float((lengths.max() - lengths.min()) / mean)
    return CheckReport(
        "edge_uniformity",
        spread <= UNIFORM_EDGE_TOL,
        {"edges": len(lengths), "mean": mean, "relative_spread": spread},
    )


def verify_realization(real: Realization) -> dict:
    """All numeric structure checks, keyed by name."""
    reports = [
        centroid_check(real),
        affine_rank_check(real),
        containment_check(real),
        distinct_faces_check(real),
        edge_uniformity_check(real),
    ]
    return {r.name: r for r in reports}


# -- regularity witnesses ----------------------------------------------------


def _ridge_slots(real: Realization) -> list:
    """(slot, normals, bend) per rank n-2 slot, in slot order.

    A symmetry fixing a ridge pointwise also fixes the origin, hence the
    whole linear span of the ridge; that span must be a hyperplane or no
    reflection through the ridge exists (SpanDeficient; below dimension 2,
    UnsupportedDimension).  Ridge g r's points are g times the base ridge
    r's plus E, ||E||_F <= err = image_error(m) + ROUNDING, so when the
    margin over err is positive (_slot_svd) the base ridge's span decides
    the slot: normals holds its one unit normal u, and bend bounds 2 sin of
    the angle between any ridge's computed normal and g u, the norm of the
    difference of their reflections.  Counting the base's last singular
    value s_n as part of the error, that sine is at most (err + s_n) /
    (s_(n-1) - err - s_n) by Wedin's theorem, s_(n-1) the base's smallest
    nonzero singular value; bend is inf when that gap closes.  Otherwise
    normals holds every ridge's normal and bend is None.
    """
    lat = real.lattice
    n = lat.n
    if n < 2:
        raise UnsupportedDimension("ridges need dimension >= 2")
    out = []
    for s in lat.slots_by_rank[n - 2]:
        err = real.image_error(lat.face_vertices[s.offset].shape[1]) + ROUNDING
        sv, margin, vt = _slot_svd(real, s, err, span=True)
        ranks = (sv > AFFINE_RANK_TOL).sum(axis=1)
        wrong = np.flatnonzero(ranks != n - 1)
        if wrong.size:
            raise SpanDeficient(
                f"ridge span has dimension {int(ranks[wrong[0]])}, expected {n - 1}"
            )
        bend = None
        if margin > 0:
            tail = err + (sv[0, n - 1] if sv.shape[1] >= n else 0.0)
            gap = sv[0, n - 2] - tail
            bend = 2.0 * tail / gap if gap > 0 else np.inf
        out.append((s, vt[:, -1, :], bend))
    return out


def _reflected_matches(points: np.ndarray, normals: np.ndarray, slack: float) -> tuple:
    """(missed, held) per normal, for points reflected through it.

    missed: some image lies farther than RIDGE_MATCH_TOL + slack from every
    point.  held: every image lies within RIDGE_MATCH_TOL - slack of a
    point.  slack is below RIDGE_MATCH_TOL; at slack 0, missed is
    match_rows' verdict at RIDGE_MATCH_TOL itself.  The images for a block
    of normals, about WITNESS_ROWS rows together, are matched in one
    match_rows call, so the set is sorted once per block.
    """
    per = max(1, WITNESS_ROWS // len(points))
    missed, held = [], []
    for start in range(0, len(normals), per):
        block = normals[start : start + per]
        moved = np.concatenate([points - 2.0 * np.outer(points @ u, u) for u in block])
        idx = match_rows(moved, points, RIDGE_MATCH_TOL + slack)
        d2 = ((moved - points.take(idx, axis=0)) ** 2).sum(axis=1).reshape(len(block), -1)
        idx = idx.reshape(len(block), -1)
        missed.append((idx < 0).any(axis=1))
        held.append(((idx >= 0) & (d2 <= (RIDGE_MATCH_TOL - slack) ** 2)).all(axis=1))
    return np.concatenate(missed), np.concatenate(held)


def _unclosed_ridges(real: Realization, points: np.ndarray, limit: int) -> list:
    """First `limit` ridge ids, in order, whose reflection moves a point off the set.

    points are the vertices or any rows that the group permutes as it does
    the faces they stand for, each within 2 sqrt(dim) deviation of g times
    its counterpart (the facet centroids: a mean of such rows).  Ridge g r
    reflects by g s g^-1, s the base ridge r's reflection, so each of its
    images is within 2 sqrt(dim) deviation (one row error) plus bend times
    the largest row norm (its normal's error) of g times an image under s,
    and each point within 2 sqrt(dim) deviation of g times a point.  So when
    s misses or holds with that slack (_reflected_matches), every ridge of
    the slot does so at RIDGE_MATCH_TOL; otherwise, and for the slots whose
    span margin was too thin (_ridge_slots), each ridge is matched alone.
    The slots are walked once, in order, each at its own slack.
    """
    slots = _ridge_slots(real)
    reach = np.sqrt((points * points).sum(axis=1).max())
    carry = 4.0 * np.sqrt(real.dim) * real.deviation + ROUNDING
    failures = []
    first = 0
    for s, normals, bend in slots:
        slack = np.inf if bend is None else carry + bend * reach
        missed = held = False
        # a base ridge whose slack reaches the tolerance cannot hold, so its
        # slot goes ridge by ridge without a try
        if slack < RIDGE_MATCH_TOL:
            (missed,), (held,) = _reflected_matches(points, normals, slack)
        if missed:
            failures.extend(range(first, first + min(s.count, limit)))
        elif not held:
            if bend is not None:
                normals = _slot_svd(real, s, np.inf, span=True)[2][:, -1, :]
            missed, _ = _reflected_matches(points, normals, 0.0)
            failures.extend((first + np.flatnonzero(missed)).tolist())
        if len(failures) >= limit:
            return failures[:limit]
        first += s.count
    return failures


def ridge_reflection_check(real: Realization) -> CheckReport:
    """Reflection through every ridge hyperplane maps vertices to vertices.

    This is the geometric regularity test: it holds for the classical
    regular polytopes and fails as soon as two facet shapes meet at a
    ridge.  One base ridge per slot decides the slot (_unclosed_ridges);
    failures lists the first ten ridge ids, numbered slot after slot.
    """
    failures = _unclosed_ridges(real, real.points, 10)
    ridges = sum(s.count for s in real.lattice.slots_by_rank[real.lattice.n - 2])
    return CheckReport(
        "ridge_reflection",
        not failures,
        {"ridges": ridges, "failures": failures},
    )


def polar_dual_check(real: Realization) -> CheckReport:
    """Facet centroids sit on one sphere and are permuted by ridge reflections.

    The facet centroids are the vertices of the polar dual up to scale; the
    group is transitive on facets by construction, so with equal norms and
    ridge-reflection closure the dual vertex orbit is itself the orbit of a
    point under the same group.  As in ridge_reflection_check, one base
    ridge per slot decides the slot.
    """
    lat = real.lattice
    cents = []
    for s in lat.slots_by_rank[lat.n - 1]:
        cents.append(real.points.take(lat.face_vertices[s.offset], axis=0).mean(axis=1))
    cents = np.vstack(cents)
    norms = np.linalg.norm(cents, axis=1)
    spread = float((norms.max() - norms.min()) / norms.mean())
    closed = not _unclosed_ridges(real, cents, 1)
    return CheckReport(
        "polar_dual",
        spread <= FACET_NORM_TOL and closed,
        {"facets": len(cents), "norm_spread": spread, "reflection_closed": closed},
    )


# -- export ------------------------------------------------------------------


def off_document(real: Realization) -> str:
    """OFF text for 3-dimensional polytopes, faces wound counterclockwise."""
    lat = real.lattice
    if lat.n != 3:
        raise UnsupportedDimension("OFF export supports dimension 3 only")
    pts = real.points
    faces = []
    for s in lat.slots_by_rank[2]:
        for row in lat.face_vertices[s.offset]:
            p = pts[row]
            c = p.mean(axis=0)
            _, _, vt = np.linalg.svd(p - c)
            b1, b2 = vt[0], vt[1]
            if np.dot(np.cross(b1, b2), c) < 0:
                b2 = -b2
            ang = np.arctan2((p - c) @ b2, (p - c) @ b1)
            faces.append(row[np.argsort(ang)])
    lines = [
        "OFF",
        f"{len(pts)} {len(faces)} {lat.f_vector[1]}",
    ]
    lines += [" ".join(f"{v:.12f}" for v in p) for p in pts]
    lines += [str(len(f)) + " " + " ".join(str(int(v)) for v in f) for f in faces]
    return "\n".join(lines) + "\n"


def realization_document(real: Realization) -> dict:
    """JSON-ready dict with coordinates and per-face vertex lists."""
    lat = real.lattice
    faces = []
    for sl in lat.slots_by_rank[1:]:
        for s in sl:
            faces.extend(
                {"id": s.offset + i, "rank": s.rank, "vertices": row}
                for i, row in enumerate(lat.face_vertices[s.offset].tolist())
            )
    return {
        "dimension": lat.n,
        "f_vector": list(lat.f_vector),
        "vertices": real.points.tolist(),
        "faces": faces,
    }
