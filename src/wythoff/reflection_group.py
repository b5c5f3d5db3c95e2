"""Finite reflection groups enumerated as permutations of their root set.

Simple mirror normals come from the Cholesky factor of the diagram's Gram
matrix.  The root set is the closure of the normals under the generating
reflections; every group element then becomes an integer permutation of the
root list, and all later combinatorics (subgroups, cosets, face counting)
is exact integer work.  One tolerance-bearing step remains: matching
reflected roots back into the root list (dedup 1e-6, separation floor 1e-3).

Elements are handled as whole arrays, keyed by their images of the n simple
roots.  The key is injective: an element is linear and the simple roots are
a basis, so their images fix it.  The root list starts with the simple
roots, so two distinct permutation rows first differ within their first n
columns, and the lexicographic order of the keys is that of the full rows.
Each key is stored as big-endian unsigned root indices viewed as one
``np.void`` scalar, whose byte order (memcmp) is that lexicographic order;
lookups are ``searchsorted`` in the sorted key array.

The enumeration is a breadth-first search by layers, and layer k holds the
elements of length k.  Every generator s is a reflection (det -1), so
l(sw) = l(w) +- 1: the products of layer k lie in layer k-1 or layer k+1.
Only the sorted keys of layer k-1 are searched to drop old elements; the
new ones are deduplicated among themselves by ``np.unique``.  A new element
w' keeps its first occurrence in generator-major order, s_i w with the least
i; no other s_i w equals w', so this is the parent and generator an
element-by-element search in that order finds, whatever the frontier order.

One Cayley table is kept, right multiplication by the generators (rmult).
It closes the parabolic subgroups, labels their left cosets, and gives
right multiplication by any element through the element's word.
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
    """Left-coset partition of a group by a parabolic subgroup W_J.

    coset_id maps element index -> coset number; reps[c] is the coset's
    minimal element index, its lexicographically minimal permutation (the
    canonical representative).  The coset g W_J is the connected component
    of g under right multiplication by the s_j, j in J, found by propagating
    the minimum index along those edges; cosets are numbered in increasing
    order of their representatives.
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
    rows, so index 0 is the identity and coset minima are canonical.  The
    order is that of the keys (images of the simple roots, see the module
    docstring), held sorted in _keys for lookups.  rmult[i] maps each
    element g to g s_i, the one Cayley table kept: (g s_i)(a) = g(s_i a), so
    it reads g's row at the columns s_i sends the simple roots to.  Walking
    it from the identity closes a parabolic subgroup, and from g the left
    coset g W_J.
    """

    def __init__(self, diagram, normals, roots, perms, keys, parent, gen_of, gen_perms):
        self.diagram = diagram
        self.normals = normals
        self.roots = roots
        self.perms = perms
        self._keys = keys
        self._parent = parent
        self._gen_of = gen_of
        self.n_gens = diagram.rank
        n = self.n_gens
        self.gen_elements = self._lookup(_keys(gen_perms[:, :n])).astype(np.int64)
        self.rmult = np.stack(
            [self._lookup(_keys(perms[:, gp[:n]])) for gp in gen_perms]
        ).astype(np.int32)
        self._subgroups: dict = {}
        self._cosets: dict = {}

    def _lookup(self, keys: np.ndarray) -> np.ndarray:
        """Element indices of the given keys; KeyError if one is no element."""
        pos = np.searchsorted(self._keys, keys)
        if not _found(self._keys, keys, pos).all():
            raise KeyError("permutation is not a group element")
        return pos

    @property
    def order(self) -> int:
        return len(self.perms)

    def element_index(self, perm_row: np.ndarray) -> int:
        row = np.asarray(perm_row, dtype=self.perms.dtype)
        if row.shape != self.perms.shape[1:]:
            raise KeyError("permutation is not a group element")
        a = int(self._lookup(_keys(row[None, : self.n_gens]))[0])
        if not np.array_equal(self.perms[a], row):
            raise KeyError("permutation is not a group element")
        return a

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
        tabs = self.rmult[gens]
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
        label = np.arange(self.order)
        right = self.rmult[sorted(key)]
        while True:
            before = label
            for r in right:
                label = np.minimum(label, label[r])
            if np.array_equal(label, before):
                break
        reps, coset_id = np.unique(label, return_inverse=True)
        table = CosetTable(sub, coset_id.astype(np.int32), reps.astype(np.int64))
        self._cosets[key] = table
        return table

    def point_images(self, x: np.ndarray) -> np.ndarray:
        """g*x for every element, batched, without storing matrices."""
        s_cols = self.roots.roots[self.roots.simple].T
        y = np.linalg.solve(s_cols, np.asarray(x, dtype=np.float64))
        t = self.roots.roots[self.perms[:, self.roots.simple]]
        return np.einsum("gjd,j->gd", t, y)


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
    gens = np.stack(gen_perms)
    n = d.rank
    frontier = np.arange(roots.count, dtype=gens.dtype)[None, :]
    layers, parents, gens_of = [frontier], [np.array([-1])], [np.array([-1])]
    total, offset = 1, 0
    below = _keys(frontier[:0, :n])     # sorted keys of the layer before the frontier
    here = _keys(frontier[:, :n])       # keys of the frontier, which is kept sorted
    while len(frontier):
        cand = _keys(gens[:, frontier[:, :n]].reshape(-1, n))
        uniq, first = np.unique(cand, return_index=True)
        pos = np.searchsorted(below, uniq)
        new = ~_found(below, uniq, pos)
        gen, src = np.divmod(first[new], len(frontier))
        if total + len(gen) > budget:
            raise BudgetExceeded("enumeration exceeded budget %d" % budget)
        nxt = gens[gen[:, None], frontier[src]]
        layers.append(nxt)
        parents.append(offset + src)
        gens_of.append(gen)
        total += len(nxt)
        offset += len(frontier)
        below, here, frontier = here, uniq[new], nxt
    if total != expected:
        raise ToleranceCollision(
            "enumerated %d elements, formula says %d" % (total, expected)
        )
    # reindex so element order is lex order of the keys (= of the rows)
    keys = _keys(np.concatenate([layer[:, :n] for layer in layers]))
    order = np.argsort(keys)
    inv = np.empty_like(order)
    inv[order] = np.arange(total)
    perms = np.empty((total, roots.count), dtype=frontier.dtype)
    offset = 0
    while layers:
        layer = layers.pop(0)
        perms[inv[offset : offset + len(layer)]] = layer
        offset += len(layer)
    parent = np.concatenate(parents)[order]
    parent = np.where(parent >= 0, inv[np.maximum(parent, 0)], -1)
    gen_of = np.concatenate(gens_of)[order]
    assert inv[0] == 0
    return Group(d, normals, roots, perms, keys[order], parent, gen_of, gens)


def _keys(simple_images: np.ndarray) -> np.ndarray:
    """One np.void key per row of root indices, memcmp order = lex order."""
    be = np.ascontiguousarray(simple_images, dtype=">u%d" % simple_images.dtype.itemsize)
    return be.view(np.dtype((np.void, be.dtype.itemsize * be.shape[1]))).reshape(-1)


def _found(sorted_keys: np.ndarray, keys: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """Which keys sit at their searchsorted positions pos in sorted_keys."""
    if not len(sorted_keys):
        return np.zeros(len(keys), dtype=bool)
    return sorted_keys[np.minimum(pos, len(sorted_keys) - 1)] == keys
