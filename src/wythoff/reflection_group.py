"""Finite reflection groups enumerated as permutations of their root set.

Simple mirror normals come from the Cholesky factor of the diagram's Gram
matrix.  The root set is the closure of the normals under the generating
reflections; every group element then becomes an integer permutation of the
root list, and all later combinatorics (subgroups, cosets, face counting)
is exact integer work.  One tolerance-bearing step remains: matching
reflected roots back into the root list (dedup 1e-6, separation floor 1e-3).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .diagram import DecoratedDiagram, gram_matrix, group_order
from .errors import (
    BudgetExceeded,
    NotFiniteType,
    SubgroupNotContained,
    ToleranceCollision,
)

DEFAULT_BUDGET = 2_000_000
ROOT_MATCH_TOL = 1e-6
ROOT_SEPARATION = 1e-3


def enumeration_budget() -> int:
    """Element budget; override with the WYTHOFF_BUDGET env var."""
    raw = os.environ.get("WYTHOFF_BUDGET", "").strip()
    if raw:
        try:
            return int(raw)
        except ValueError:
            raise ValueError("WYTHOFF_BUDGET must be an integer") from None
    return DEFAULT_BUDGET


def simple_normals(d: DecoratedDiagram) -> np.ndarray:
    """Unit mirror normals (rows) with pairwise dots -cos(pi/m_ij)."""
    gram = gram_matrix(d)
    try:
        low = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise NotFiniteType("Gram matrix is not positive definite") from None
    return low


@dataclass(frozen=True)
class RootSystem:
    """Closure of the simple normals under the generating reflections."""

    roots: np.ndarray          # (count, dim) unit vectors
    simple: np.ndarray         # indices of the simple normals in roots

    @property
    def count(self) -> int:
        return len(self.roots)


def root_system(normals: np.ndarray) -> RootSystem:
    n = len(normals)
    refl = [np.eye(n) - 2.0 * np.outer(v, v) for v in normals]
    roots = np.array(normals, dtype=np.float64)
    frontier = roots
    while len(frontier):
        # one closure layer: every generator's images of the frontier, in
        # generator order; an image is new unless it matches a known root or
        # an earlier image (match_rows returns the lowest matching index)
        images = np.vstack([frontier @ r.T for r in refl])
        images = images[_kernels.match_rows(images, roots, ROOT_MATCH_TOL) < 0]
        first = _kernels.match_rows(images, images, ROOT_MATCH_TOL) == np.arange(len(images))
        frontier = images[first]
        roots = np.vstack([roots, frontier])
    sep = _kernels.min_pairwise_distance(roots)
    if sep < ROOT_SEPARATION:
        raise ToleranceCollision(
            "distinct roots only %.3g apart (floor %.3g)" % (sep, ROOT_SEPARATION)
        )
    return RootSystem(roots, np.arange(n))


@dataclass(frozen=True)
class Subgroup:
    """A parabolic subgroup: generated by a subset of the simple mirrors."""

    generator_nodes: frozenset
    elements: np.ndarray       # sorted element indices

    @property
    def order(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class CosetTable:
    """Left-coset partition of a group by a parabolic subgroup.

    coset_id maps element index -> coset number; reps[c] is the coset's
    lexicographically minimal element (element indices are in lex order of
    their root permutations, so the minimum index is the canonical rep).
    """

    subgroup: Subgroup
    coset_id: np.ndarray
    reps: np.ndarray

    @property
    def count(self) -> int:
        return len(self.reps)


class Group:
    """A finite reflection group with its elements as root permutations.

    Element indices are assigned in lexicographic order of the permutation
    rows, so index 0 is the identity and coset minima are canonical.
    """

    def __init__(self, diagram, normals, roots, perms, index, parent, gen_of):
        self.diagram = diagram
        self.normals = normals
        self.roots = roots
        self.perms = perms
        self._index = index
        self._parent = parent
        self._gen_of = gen_of
        self.n_gens = diagram.rank
        gen_perms = perms_of_generators(roots, normals)
        self.gen_elements = np.array(
            [index[p.tobytes()] for p in gen_perms], dtype=np.int64
        )
        # left-translation tables by each generator
        lm = np.empty((self.n_gens, len(perms)), dtype=np.int32)
        for gi, gp in enumerate(gen_perms):
            prod = gp[perms]
            for e in range(len(perms)):
                lm[gi, e] = index[prod[e].tobytes()]
        self.lmult = lm
        self._subgroups: dict = {}
        self._cosets: dict = {}
        self._matrices = None

    @property
    def order(self) -> int:
        return len(self.perms)

    def element_index(self, perm_row: np.ndarray) -> int:
        return self._index[np.asarray(perm_row, dtype=self.perms.dtype).tobytes()]

    def compose(self, a: int, b: int) -> int:
        """Index of a*b (apply b, then a)."""
        return self.element_index(self.perms[a][self.perms[b]])

    def inverse(self, a: int) -> int:
        inv = np.empty_like(self.perms[a])
        inv[self.perms[a]] = np.arange(len(inv), dtype=self.perms.dtype)
        return self.element_index(inv)

    def word(self, a: int) -> tuple[int, ...]:
        """One generator word for element a (BFS tree, left factors first)."""
        out = []
        while self._parent[a] != -1:
            out.append(int(self._gen_of[a]))
            a = int(self._parent[a])
        return tuple(out)

    def subgroup(self, nodes) -> Subgroup:
        key = frozenset(int(v) for v in nodes)
        if not all(0 <= v < self.n_gens for v in key):
            raise SubgroupNotContained("generator indices out of range")
        sub = self._subgroups.get(key)
        if sub is None:
            sub = Subgroup(key, self._close_subgroup(sorted(key)))
            self._subgroups[key] = sub
        return sub

    def _close_subgroup(self, gens) -> np.ndarray:
        if not gens:
            return np.zeros(1, dtype=np.int64)
        visited = np.zeros(self.order, dtype=bool)
        visited[0] = True
        frontier = np.array([0], dtype=np.int64)
        tabs = self.lmult[gens]
        while frontier.size:
            cand = tabs[:, frontier].ravel()
            cand = np.unique(cand[~visited[cand]])
            visited[cand] = True
            frontier = cand
        return np.flatnonzero(visited)

    def coset_table(self, nodes) -> CosetTable:
        key = frozenset(int(v) for v in nodes)
        table = self._cosets.get(key)
        if table is not None:
            return table
        sub = self.subgroup(key)
        ph = self.perms[sub.elements]
        coset_id = np.full(self.order, -1, dtype=np.int32)
        reps = []
        for g in range(self.order):
            if coset_id[g] != -1:
                continue
            rows = self.perms[g][ph]
            members = [self._index[rows[i].tobytes()] for i in range(len(rows))]
            coset_id[members] = len(reps)
            reps.append(g)
        table = CosetTable(sub, coset_id, np.array(reps, dtype=np.int64))
        self._cosets[key] = table
        return table

    def cosets(self, sub: Subgroup) -> np.ndarray:
        """Canonical left-coset representatives of sub in this group."""
        if not all(0 <= v < self.n_gens for v in sub.generator_nodes):
            raise SubgroupNotContained("subgroup uses foreign generators")
        return self.coset_table(sub.generator_nodes).reps

    def matrices(self) -> np.ndarray:
        """Orthogonal matrix of every element, batched (order, n, n)."""
        if self._matrices is None:
            s_cols = self.roots.roots[self.roots.simple].T
            s_inv = np.linalg.inv(s_cols)
            t = self.roots.roots[self.perms[:, self.roots.simple]]
            self._matrices = np.einsum("gdj,je->gde", t.transpose(0, 2, 1), s_inv)
        return self._matrices

    def point_images(self, x: np.ndarray) -> np.ndarray:
        """g*x for every element, batched, without storing matrices."""
        s_cols = self.roots.roots[self.roots.simple].T
        y = np.linalg.solve(s_cols, np.asarray(x, dtype=np.float64))
        t = self.roots.roots[self.perms[:, self.roots.simple]]
        return np.einsum("gjd,j->gd", t, y)

    def reflection_count(self) -> int:
        """Number of elements acting as reflections (det -1, trace n-2)."""
        mats = self.matrices()
        dets = np.linalg.det(mats)
        traces = np.trace(mats, axis1=1, axis2=2)
        n = mats.shape[1]
        return int(
            np.count_nonzero((np.abs(dets + 1) < 1e-6) & (np.abs(traces - (n - 2)) < 1e-6))
        )


def perms_of_generators(roots: RootSystem, normals: np.ndarray) -> list[np.ndarray]:
    """Permutation each generating reflection induces on the root list."""
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


def enumerate_group(d: DecoratedDiagram, budget: int | None = None) -> Group:
    """Enumerate the reflection group of a finite-type diagram.

    Checks the formula order against the budget before doing any work, so
    oversized groups (e.g. rank-7/8 E families) fail fast and callers fall
    back to formula-based counting.
    """
    if budget is None:
        budget = enumeration_budget()
    expected = group_order(d)
    if expected > budget:
        raise BudgetExceeded(
            "group order %d exceeds budget %d" % (expected, budget)
        )
    normals = simple_normals(d)
    roots = root_system(normals)
    gen_perms = perms_of_generators(roots, normals)
    m = roots.count
    ident = np.arange(m, dtype=gen_perms[0].dtype if gen_perms else np.int16)
    rows = [ident]
    index = {ident.tobytes(): 0}
    parent, gen_of = [-1], [-1]
    frontier = [0]
    while frontier:
        arr = np.array([rows[i] for i in frontier])
        nxt = []
        for gi, gp in enumerate(gen_perms):
            prod = gp[arr]
            for k, src in enumerate(frontier):
                b = prod[k].tobytes()
                if b not in index:
                    if len(rows) >= budget:
                        raise BudgetExceeded("enumeration exceeded budget %d" % budget)
                    index[b] = len(rows)
                    rows.append(prod[k].copy())
                    parent.append(src)
                    gen_of.append(gi)
                    nxt.append(index[b])
        frontier = nxt
    perms = np.array(rows)
    if len(perms) != expected:
        raise ToleranceCollision(
            "enumerated %d elements, formula says %d" % (len(perms), expected)
        )
    # reindex so element order is lex order of permutation rows
    order = np.lexsort(perms.T[::-1])
    inv = np.empty_like(order)
    inv[order] = np.arange(len(order))
    perms = perms[order]
    index = {perms[i].tobytes(): i for i in range(len(perms))}
    parent = np.array(parent)[order]
    parent = np.where(parent >= 0, inv[np.maximum(parent, 0)], -1)
    gen_of = np.array(gen_of)[order]
    assert index[ident.tobytes()] == 0
    return Group(d, normals, roots, perms, index, parent, gen_of)
