"""Finite reflection groups enumerated as permutations of their root set.

Simple mirror normals come from the Cholesky factor of the diagram's Gram
matrix.  The root set is their closure under the generating reflections,
listing them first; every group element permutes the root list, and all
later combinatorics (subgroups, cosets, face counting) is exact integer
work.  One tolerance-bearing step remains: matching reflected roots back
into the root list (dedup 1e-6, separation floor 1e-3).

An element w is kept as its images of a few roots only, the columns
C = {a_j} u {s_i a_j}, which the root closure lists first.  The images of
the simple roots a_j fix w: it is linear and the simple roots are a basis.
The images of the roots s_i(a_j) are the images of the simple roots under
w s_i, which is all right multiplication needs.  C is 18 of 72 roots on B6
and 21 of 98 on B7; no per-element array of every root is built.

Elements are found as whole arrays, keyed by their images of the n simple
roots.  The image w(a_j) lies in the W-orbit of a_j, so it is written as
its digit, its rank within that orbit in root-index order, and the key is
the mixed-radix number sum_j digit[w(a_j)] * place_j, where place_j is the
product of the orbit sizes of a_(j+1), ..., a_n.  Distinct images give
distinct digit strings, so the key is injective.  Digits grow with the root
index within each orbit, so key order is the lexicographic order of the
simple images; the root list starts with the simple roots, so two distinct
permutations of it first differ within their first n roots, and key order
is the lexicographic order of the full permutations.  Keys are uint64 and
the key space is the product of the n orbit sizes: 2^49.4 for A8, 2^63.3
for E8.  A group whose key space exceeds 2^64 is refused (BudgetExceeded)
before any per-element array is built.  The keys exist only inside
enumerate_group: they deduplicate the search and, by ``searchsorted`` in
the sorted key array, build the Cayley table.

The enumeration is a breadth-first search by layers, and layer k holds the
elements of length k.  Every generator s is a reflection (det -1), so
l(sw) = l(w) +- 1: the products of layer k lie in layer k-1 or layer k+1.
Only the sorted keys of layer k-1 are searched to drop old elements; the
new ones are deduplicated among themselves by a sort.  A new element
w' keeps its first occurrence in generator-major order, s_i w with the least
i; no other s_i w equals w', so this is the parent and generator an
element-by-element search in that order finds, whatever the frontier order.

One Cayley table is kept, right multiplication by the generators (rmult).
Components of a graph of element (or root) maps are labelled by their
least member in one routine, _coset_minima.  Over rmult restricted to J it
labels the left cosets g W_J, the faces of the lattice.  Over the generator
permutations of the roots it gives the root orbits behind the keys, and
over the flag moves' ordering table, the components of the orderings.

The group depends on the diagram only through its Coxeter matrix, so
enumerate_group keeps the last group it built, with its coset tables, for
every decoration of that matrix.  Its arrays are read-only, so no caller
can change what later callers read.  A group of more than HOLD_LIMIT
elements is not kept, so what a process holds between calls stays small.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .diagram import DecoratedDiagram, group_order
from .errors import (
    BudgetExceeded,
    NotFiniteType,
    ParseError,
    SubgroupNotContained,
    ToleranceCollision,
)

DEFAULT_BUDGET = 2_000_000
KEY_LIMIT = 2**64
ROW_BLOCK = 8192
ROOT_MATCH_TOL = 1e-6
ROOT_SEPARATION = 1e-3
# largest group enumerate_group keeps for later calls.  With the coset
# tables of a full check a group takes 100 to 170 bytes an element (H4,
# 14400 elements: 2.5 MB), so at most about 5 MB stays held; A7 (40320),
# B6 (46080) and E6 (51840) are not kept
HOLD_LIMIT = 32_768


def enumeration_budget() -> int:
    """Element budget; override with the WYTHOFF_BUDGET env var.

    ParseError if the variable is set to something other than an integer.
    """
    raw = os.environ.get("WYTHOFF_BUDGET", "").strip()
    if raw:
        try:
            return int(raw)
        except ValueError:
            raise ParseError("WYTHOFF_BUDGET must be an integer, got %r" % raw) from None
    return DEFAULT_BUDGET


def coxeter_matrix(d: DecoratedDiagram) -> np.ndarray:
    n = d.rank
    m = np.full((n, n), 2, dtype=np.int64)
    np.fill_diagonal(m, 1)
    for i, j, lab in d.edges:
        m[i, j] = m[j, i] = lab
    return m


def gram_matrix(d: DecoratedDiagram) -> np.ndarray:
    """Bilinear form B_ij = -cos(pi / m_ij); identity diagonal."""
    return -np.cos(np.pi / coxeter_matrix(d))


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

    roots: np.ndarray          # (count, dim) unit vectors, the n simple normals first
    perms: np.ndarray          # (n, count): perms[i][a] is the index of s_i(root a)

    @property
    def count(self) -> int:
        return len(self.roots)


def root_system(normals: np.ndarray) -> RootSystem:
    """Close the normals under their reflections, recording the root permutations.

    Every root lies in exactly one closure frontier, so the closure reflects
    each root by each generator exactly once, and the permutations are read
    off the two matches it makes anyway.  The roots are listed by frontier:
    the simple normals, then the new images s_i(a_j), and so on.
    """
    n = len(normals)
    refl = [np.eye(n) - 2.0 * np.outer(v, v) for v in normals]
    roots = np.array(normals, dtype=np.float64)
    frontier = roots
    blocks = []
    while len(frontier):
        # one closure layer: every generator's images of the frontier, in
        # generator order; an image is new unless it matches a known root or
        # an earlier image (match_rows returns the lowest matching index)
        images = np.vstack([frontier @ r.T for r in refl])
        ids = _kernels.match_rows(images, roots, ROOT_MATCH_TOL)
        new = ids < 0
        images = images[new]
        first_of = _kernels.match_rows(images, images, ROOT_MATCH_TOL)
        first = first_of == np.arange(len(images))
        # a new image is numbered by the rank of its first occurrence
        ids[new] = len(roots) + (np.cumsum(first) - 1)[first_of]
        blocks.append(ids.reshape(n, -1))
        frontier = images[first]
        roots = np.vstack([roots, frontier])
    sep = _kernels.min_pairwise_distance(roots)
    if sep < ROOT_SEPARATION:
        raise ToleranceCollision(
            "distinct roots only %.3g apart (floor %.3g)" % (sep, ROOT_SEPARATION)
        )
    perms = np.hstack(blocks).astype(np.int16 if len(roots) < 2**15 else np.int32)
    if not (np.sort(perms, axis=1) == np.arange(len(roots))).all():
        raise ToleranceCollision("root reflection is not a permutation")
    return RootSystem(roots, perms)


@dataclass(frozen=True)
class CosetTable:
    """Left-coset partition of a group by a parabolic subgroup W_J.

    coset_id maps element index -> coset number; reps[c] is the coset's
    minimal element index, its lexicographically minimal permutation (the
    canonical representative).  The coset g W_J is the connected component
    of g under right multiplication by the s_j, j in J, labelled with its
    least member by _coset_minima; cosets are numbered in increasing order
    of their representatives, so coset 0 is W_J itself.
    """

    coset_id: np.ndarray
    reps: np.ndarray

    @property
    def count(self) -> int:
        return len(self.reps)


class Group:
    """A finite reflection group with its elements as root permutations.

    Element indices are assigned in lexicographic order of the permutations
    of the root list, so index 0 is the identity and coset minima are
    canonical.  perms[g, c] is the index of g(root c) for the roots the
    library reads: the simple roots and their images under the generators,
    which the root closure lists first, so perms holds the first columns of
    the full permutation rows.  The simple roots are roots.roots[:n_gens].
    rmult[i] maps each element g to g s_i, the one Cayley table kept:
    (g s_i)(a) = g(s_i a).  The generators themselves are rmult[:, 0].
    Joining g to g s_j for j in J gives the left cosets g W_J (coset_table).
    No element keys or words are kept: the keys and the search tree exist
    only inside enumerate_group.  coxeter is the Coxeter matrix in node
    order, which fixes the group and its element numbering.
    """

    def __init__(self, coxeter, roots, perms, rmult):
        for a in (coxeter, roots.roots, roots.perms, perms, rmult):
            a.setflags(write=False)
        self.coxeter = coxeter
        self.roots = roots
        self.perms = perms
        self.rmult = rmult
        self.n_gens = len(rmult)
        self._cosets: dict = {}

    @property
    def order(self) -> int:
        return self.rmult.shape[1]

    def coset_table(self, nodes) -> CosetTable:
        key = frozenset(int(v) for v in nodes)
        if not all(0 <= v < self.n_gens for v in key):
            raise SubgroupNotContained("generator indices out of range")
        table = self._cosets.get(key)
        if table is not None:
            return table
        label = _coset_minima(self.order, list(self.rmult[sorted(key)]))
        is_rep = label == np.arange(self.order)
        coset_id = (np.cumsum(is_rep, dtype=np.int32) - 1)[label]
        table = CosetTable(coset_id, np.flatnonzero(is_rep))
        for a in (coset_id, table.reps):
            a.setflags(write=False)
        self._cosets[key] = table
        return table

    def point_images(self, x: np.ndarray, elements=slice(None)) -> np.ndarray:
        """g*x for the given elements (all by default), without matrices.

        With x = sum_j y_j a_j, g*x = sum_j y_j g(a_j), added up one simple
        root at a time so that no (elements, n, dim) array is built.
        """
        roots = self.roots.roots
        y = np.linalg.solve(roots[: self.n_gens].T, np.asarray(x, dtype=np.float64))
        rows = self.perms[elements]
        out = roots[rows[:, 0]] * y[0]
        for j in range(1, len(y)):
            out += roots[rows[:, j]] * y[j]
        return out


def _coset_minima(count: int, tables: list) -> np.ndarray:
    """Least member of each component of the graph x -- t[x] on 0..count-1.

    With the rows of rmult for the generators in J the components are the
    left cosets x W_J (coset_table); with the generator permutations of the
    roots they are the root orbits (key_layout); with the columns of the
    flag moves' ordering table they are the components of the graph of
    selection orderings (face_lattice._flags_connected).  Each table must
    be a permutation, so that every edge lies on a cycle of t and the least
    label of a cycle is hooked along it.  They are found by hooking
    and pointer jumping: each round hooks the root of x's tree onto the
    root of t[x]'s tree when that is smaller, then points every member at
    its root.  Whole trees merge at once, so a long cycle closes in a
    number of rounds logarithmic in its length.  Once every edge joins
    equal labels, each component carries one label, its least member.
    """
    label = np.arange(count)
    while True:
        for t in tables:
            np.minimum.at(label, label, label[t])
        while True:
            root = label[label]
            if np.array_equal(root, label):
                break
            label = root
        if all(np.array_equal(label[t], label) for t in tables):
            return label


def key_layout(gen_perms) -> np.ndarray:
    """Key table of the group the root permutations generate.

    The digit of a root is its rank within its W-orbit in root-index order,
    and the table's row j holds digit * place_j, place_j being the product
    of the orbit sizes of a_(j+1), ..., a_n; an element's key sums row j at
    its image of a_j.  Entries outside a_j's orbit are never read for an
    element.  BudgetExceeded if the key space, the product of the orbit
    sizes of the simple roots, does not fit in 64 bits.
    """
    n, count = len(gen_perms), len(gen_perms[0])
    orbit = _coset_minima(count, list(gen_perms))
    size = np.bincount(orbit, minlength=count)
    by_orbit = np.argsort(orbit, kind="stable")
    digit = np.empty(count, dtype=np.uint64)
    digit[by_orbit] = np.arange(count) - (np.cumsum(size) - size)[orbit[by_orbit]]
    sizes = [int(size[orbit[j]]) for j in range(n)]
    space = math.prod(sizes)
    if space > KEY_LIMIT:
        raise BudgetExceeded(
            "element keys need %.1f bits, over the 64-bit key limit" % math.log2(space)
        )
    places = np.array([math.prod(sizes[j + 1 :]) for j in range(n)], dtype=np.uint64)
    return places[:, None] * digit


def _row_keys(key_table: np.ndarray, rows: np.ndarray, cols=None) -> np.ndarray:
    """uint64 keys of rows whose image of a_j sits in column cols[j] (default j).

    Accumulated column by column, so no (rows, n) array of key terms is built.
    """
    cols = range(len(key_table)) if cols is None else cols
    keys = key_table[0][rows[:, cols[0]]]
    for j in range(1, len(key_table)):
        keys += key_table[j][rows[:, cols[j]]]
    return keys


# the last group enumerate_group built, if within HOLD_LIMIT, keyed by its
# Coxeter matrix's bytes
_held: dict[bytes, Group] = {}


def enumerate_group(d: DecoratedDiagram) -> Group:
    """Enumerate the reflection group of a finite-type diagram.

    Checks the formula order against enumeration_budget() before doing any
    work, so oversized groups (e.g. rank-7/8 E families) fail fast and
    callers fall back to formula-based counting.  The last group built, if
    it has at most HOLD_LIMIT elements, is returned again for the same
    Coxeter matrix in node order (element numbering follows node order),
    whatever the marks.
    """
    budget = enumeration_budget()
    expected = group_order(d)
    if expected > budget:
        raise BudgetExceeded(
            "group order %d exceeds budget %d" % (expected, budget)
        )
    coxeter = coxeter_matrix(d)
    key = coxeter.tobytes()
    held = _held.get(key)
    if held is not None:
        return held
    _held.clear()  # never hold two groups: drop the old one before building
    roots = root_system(simple_normals(d))
    gens = roots.perms
    n = d.rank
    key_table = key_layout(gens)
    # gen_table[i, j, a]: key term of s_i w for an element w with w(a_j) = a
    gen_table = key_table[np.arange(n)[:, None], gens[:, None, :]]
    # the search holds each layer's images of the simple roots only; full
    # rows are filled in afterwards, in element order
    frontier = np.arange(n, dtype=gens.dtype)[None, :]
    here = _row_keys(key_table, frontier)   # keys of the frontier, which is kept sorted
    below = here[:0]                        # sorted keys of the layer before it
    sizes, keys, parents, gens_of = [1], [here], [], []
    total, offset = 1, 0
    while len(frontier):
        cand = gen_table[:, 0, frontier[:, 0]]
        for j in range(1, n):
            cand += gen_table[:, j, frontier[:, j]]
        # distinct candidates in key order, each at its first position
        cand = cand.ravel()
        by_key = np.argsort(cand)
        cand = cand[by_key]
        step = np.ones(len(cand), dtype=bool)
        step[1:] = cand[1:] != cand[:-1]
        starts = np.flatnonzero(step)
        uniq, first = cand[starts], np.minimum.reduceat(by_key, starts)
        pos = np.searchsorted(below, uniq)
        new = ~_kernels.found_at(below, uniq, pos)
        gen, src = np.divmod(first[new], len(frontier))
        if total + len(gen) > budget:
            raise BudgetExceeded("enumeration exceeded budget %d" % budget)
        nxt = gens[gen[:, None], frontier[src]]
        sizes.append(len(nxt))
        parents.append((offset + src).astype(np.int32))
        gens_of.append(gen.astype(np.int8))
        total += len(nxt)
        offset += len(frontier)
        below, here, frontier = here, uniq[new], nxt
        keys.append(here)
    if total != expected:
        raise ToleranceCollision(
            "enumerated %d elements, formula says %d" % (total, expected)
        )
    # reindex so element order is key order (= lex order of the rows)
    keys = np.concatenate(keys)
    order = np.argsort(keys)
    keys = keys[order]
    inv = np.empty(total, dtype=np.int32)
    inv[order] = np.arange(total, dtype=np.int32)
    del order
    assert inv[0] == 0
    # the kept columns are the simple roots and their images under the
    # generators, which the root closure lists first: roots 0..kept-1.
    # w = s_i p sends root c to s_i(p(c)), so its row is s_i applied to the
    # row of p, one layer before it, column by column; the search tree is
    # read one layer at a time and dropped
    kept = int(gens[:, :n].max()) + 1
    perms = np.empty((total, kept), dtype=gens.dtype)
    perms[0] = np.arange(kept)
    layers = zip(itertools.pairwise(np.cumsum(sizes)), parents, gens_of)
    for (lo, hi), parent, gen in layers:
        idx, parent = inv[lo:hi], inv[parent]
        for i, gp in enumerate(gens):
            sel = gen == i
            perms[idx[sel]] = np.take(gp, perms[parent[sel]])
    del inv, parents, gens_of
    # rmult by blocks of rows, which stay in cache while every generator
    # reads them; row g s_i reads g's row at the columns s_i sends the
    # simple roots to, and its key is looked up among the sorted keys
    rmult = np.empty((n, total), dtype=np.int32)
    for lo in range(0, total, ROW_BLOCK):
        rows = perms[lo : lo + ROW_BLOCK]
        for i, gp in enumerate(gens):
            want = _row_keys(key_table, rows, gp)
            pos = np.searchsorted(keys, want)
            if not _kernels.found_at(keys, want, pos).all():
                raise KeyError("permutation is not a group element")
            rmult[i, lo : lo + len(rows)] = pos
    group = Group(coxeter, roots, perms, rmult)
    if expected <= HOLD_LIMIT:
        _held[key] = group
    return group
