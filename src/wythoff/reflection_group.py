"""Finite reflection groups enumerated as permutations of their root set.

Simple mirror normals come from the Cholesky factor of the diagram's Gram
matrix.  The root set is their closure under the generating reflections,
listing them first; every group element permutes the root list.  The
closure decides which reflected root is new on an exact integer form of
the roots (the geometric representation, Humphreys 5.3), so no step of
this layer rests on a tolerance: roots, elements and cosets are all
deduplicated as exact integers, and the float roots are only carried along
for the points of the geometry layer.

An element w is kept as its images of the n simple roots a_j only.  These
fix w, since w is linear and the simple roots are a basis.  The geometry
layer reads its point images off them, and right multiplication comes from
the search (rmult), so no per-element array of any other root is built.

Elements are found as whole arrays, keyed by their images of the n simple
roots.  The image w(a_j) lies in the W-orbit of a_j, so it is written as
its digit, its rank within that orbit in root-index order, and the key is
the mixed-radix number sum_j digit[w(a_j)] * place_j, where place_j is the
product of the orbit sizes of a_(j+1), ..., a_n.  Distinct images give
distinct digit strings, so the key is injective.  Keys are uint64 and the
key space is the product of the n orbit sizes: 2^49.4 for A8, 2^63.3 for
E8.  A group whose key space exceeds 2^64 is refused (BudgetExceeded)
before any per-element array is built.  The keys exist only inside
enumerate_group, where a sort of them deduplicates each layer of the
search.  No element is looked up by its key.

The enumeration is a breadth-first search by layers, and layer k holds the
elements of length k.  Every generator s_i is a reflection, so
l(s_i w) = l(w) +- 1: s_i w lies in layer k-1 exactly when i is a left
descent of w, and then w was found as s_i (s_i w).  Each product found,
s_i w = w', sets lmult[i, w] = w' and, s_i being an involution,
lmult[i, w'] = w; so once a layer is expanded its row of the left table is
complete, and an unset entry of the frontier marks an ascent.  Only the
ascents are keyed: all of them are new, and the equal ones among them are
found by sorting their keys.  Elements are numbered in the order the
search finds them: by length, and within a length by key.  So index 0 is
the identity, and a longer element always has a larger index.  The images
of the simple roots are kept column by column, one row of |G| entries per
simple root, and every gather of the search is a take: a layer's images,
its key terms and its new elements' images.  lmult is written through its
flat indices i |G| + w, and Group.perms is the (|G|, n) transposed view of
the images, so they are never copied.

One Cayley table is kept, right multiplication by the generators (rmult),
and it comes from the search with no lookup: w = s_k p, with p a layer
below w, gives w s_i = s_k (p s_i), the left table read at a right product
of p (one take from the flat left table per layer, its indices int64
once n |G| reaches 2^31), so the right products fill in layer after
layer.  With them come the right descents: bit i of descents[w] is set
when w s_i lies in a lower layer, which holds exactly when w(a_i) is a
negative root.  Only the images of the simple roots are carried through
the search, and they are the only root images kept.

The faces of the lattice are the left cosets g W_J.  Each has exactly one
element with no right descent in J, its least in length, and every other
member g has a right descent j in J with g s_j one step shorter in the
same coset (Humphreys, Reflection Groups and Coxeter Groups, 1.10;
Bjorner-Brenti 2.4).  That element is the coset's canonical
representative, and since elements are numbered by length it is also the
coset's least index.  coset_table points every element one such step
down, at g s_j for its lowest right descent j in J (one lookup per byte of
its descent bits), and doubles the pointers until they all reach
representatives.  The last index is the longest element w0 = w0^J w0_J, and
its chain, of l(w0_J) steps, is the longest of all, so the doubling stops
as soon as w0's pointer reaches its representative.

Components of a graph of root or ordering maps are labelled by their least
member in one routine, _coset_minima.  Over the generator permutations of
the roots it gives the root orbits behind the keys, and over the flag
moves' ordering table, the components of the orderings.

The group depends on the diagram only through its Coxeter matrix, so
enumerate_group keeps the groups it built most recently, with their coset
tables, for every decoration of their matrices: a sweep that comes back to
a matrix skips both the search and the coset tables.  The held groups have
at most HOLD_LIMIT elements together, the least recently used are dropped
first to make room, and a larger group is not kept, so what a process
holds between calls stays small.  Their arrays are read-only, so no caller
can change what later callers read.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .diagram import DecoratedDiagram, classify_components, group_order
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
# c^2 = alpha + beta c for c = 2cos(pi/m), m the label > 3 of a component
_C_SQUARED = {4: (2, 0), 5: (1, 1), 6: (3, 0)}
# limit on the total elements of the groups enumerate_group keeps for later
# calls.  A group's own tables take 2 bytes a simple root, 4 a generator
# and 1 for the descent bits per element (H4: 25), and each coset table 4
# more and 8 a coset; with the tables of its decorations' lattices that is
# 27 to 368 bytes an element over the sweep families (H4 all ringed:
# 1.8 MB), so at most about 12 MB stays held.  The 28 groups of one pass of
# the benchmark's sweep hold 16460 elements in 3.0 MB.  A7 (40320), B6
# (46080) and E6 (51840) are not kept
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


def _exact_form(d: DecoratedDiagram):
    """Exact simple roots, generator matrices and wrapped columns of the root form.

    A root sum_j v_j a_j is a row of 2n integers (p_j, q_j), v_j = p_j + q_j c,
    where c = 2cos(pi/m) for the one label m > 3 of the root's component, and
    s_i(v) = v - (sum_j 2B_ij v_j) a_i with 2B_ij in {2, -1, 0, -c}: row @ moves[i].
    In I2(k), k > 6, c has degree above 2; there the root at angle j pi/k is
    (j, 1) in its first node's column pair, the simple roots are j = 0 and
    j = k - 1, and s_r sends j to 2r + k - j, mod 2k (the wrapped columns).
    """
    n = d.rank
    start = np.zeros((n, 2 * n), dtype=np.int64)
    moves = np.tile(np.eye(2 * n, dtype=np.int64), (n, 1, 1))
    wrap_cols, wrap_mods = [], []
    for tag in classify_components(d):
        if tag.family == "I2" and tag.k > 6:
            u, k = 2 * tag.nodes[0], tag.k
            for node, r in zip(tag.nodes, (0, k - 1)):
                start[node, u : u + 2] = (r, 1)
                moves[node, u : u + 2, u] = (-1, 2 * r + k)
            wrap_cols.append(u)
            wrap_mods.append(2 * k)
            continue
        m = max(d.label(i, j) for i in tag.nodes for j in tag.nodes)
        blocks = {1: [[2, 0], [0, 2]], 2: 0, 3: [[-1, 0], [0, -1]]}
        if m > 3:
            # (p, q) @ block = (-alpha q, -p - beta q), which is -c (p + q c)
            alpha, beta = _C_SQUARED[m]
            blocks[m] = [[0, -1], [-alpha, -beta]]
        for i in tag.nodes:
            start[i, 2 * i] = 1
            for j in tag.nodes:
                moves[i, 2 * j : 2 * j + 2, 2 * i : 2 * i + 2] -= blocks[d.label(i, j)]
    return start, moves, wrap_cols, np.array(wrap_mods, dtype=np.int64)


def root_system(d: DecoratedDiagram) -> RootSystem:
    """Close the simple normals under their reflections, recording the root permutations.

    Every root lies in exactly one closure frontier, so the closure reflects
    each root by each generator exactly once, and the permutations are read
    off the ids it gives the images anyway.  The roots are listed by
    frontier: the simple normals, then the new images s_i(a_j), and so on.
    Which image is new is decided on its exact row (_exact_form), by a dict
    keyed by the rows' bytes; the float roots are the same rows of the
    stacked products of the float frontier.
    """
    normals = simple_normals(d)
    n = len(normals)
    refl = [np.eye(n) - 2.0 * np.outer(v, v) for v in normals]
    exact, moves, wrap_cols, wrap_mods = _exact_form(d)
    index = {bytes(row): a for a, row in enumerate(exact)}
    frontier = normals
    layers, blocks = [normals], []
    while len(frontier):
        # one closure layer: every generator's images of the frontier, in
        # generator order; an image is new unless its exact row is a known
        # root or an earlier image, and is numbered by its first occurrence
        exact = np.vstack([exact @ g for g in moves])
        exact[:, wrap_cols] %= wrap_mods
        ids, first = [], []
        for p, key in enumerate(map(bytes, exact)):
            if key not in index:
                index[key] = len(index)
                first.append(p)
            ids.append(index[key])
        blocks.append(np.reshape(ids, (n, -1)))
        frontier = np.vstack([frontier @ r.T for r in refl])[first]
        exact = exact[first]
        layers.append(frontier)
    perms = np.hstack(blocks).astype(np.int16 if len(index) < 2**15 else np.int32)
    return RootSystem(np.vstack(layers), perms)


@dataclass(frozen=True)
class CosetTable:
    """Left-coset partition of a group by a parabolic subgroup W_J.

    coset_id maps element index -> coset number (int32); reps[c] is the
    coset's canonical representative, its shortest element, the one with no
    right descent in J and so its least index.  Every element of the coset
    g W_J reaches it by a chain of lowest right descents in J
    (Group.coset_table); cosets are numbered in increasing order of their
    representatives, so coset 0 is W_J itself.
    """

    coset_id: np.ndarray
    reps: np.ndarray

    @property
    def count(self) -> int:
        return len(self.reps)


class Group:
    """A finite reflection group with its elements as root permutations.

    Element indices follow the search: by length, and within a length by
    key (enumerate_group), so index 0 is the identity and the least index
    of each coset g W_J is its shortest element, the canonical
    representative.  perms[g, j] is the index of g(a_j) for the simple
    roots a_j = roots.roots[j], j < n_gens, which the root closure lists
    first, so perms holds the first n_gens columns of the full permutation
    rows; enumerate_group gives it as the transposed view of its
    (n_gens, order) table of images.  rmult[i] maps each element g to
    g s_i, the one Cayley table kept: (g s_i)(a) = g(s_i a).  The
    generators themselves are rmult[:, 0].  descents[g] holds g's right
    descents as bits: bit i is set when l(g s_i) < l(g), that is when
    g(a_i) is a negative root, in the least unsigned dtype with n_gens
    bits.  Following the lowest right
    descent in J from g, step after step, leads to the shortest element of
    g W_J, and the longest such chain is the last index's (coset_table).
    point_images reads g*x off perms and the roots.  No element keys or
    words are kept: the keys and the search tree exist only inside
    enumerate_group.  coxeter is the Coxeter matrix in node order,
    which fixes the group and its element numbering.
    """

    def __init__(self, coxeter, roots, perms, rmult, descents):
        for a in (coxeter, roots.roots, roots.perms, perms, rmult, descents):
            a.setflags(write=False)
        self.coxeter = coxeter
        self.roots = roots
        self.perms = perms
        self.rmult = rmult
        self.descents = descents
        self.n_gens = len(rmult)
        self._cosets: dict = {}

    @property
    def order(self) -> int:
        return self.rmult.shape[1]

    def coset_table(self, nodes) -> CosetTable:
        """The left cosets g W_J of the parabolic subgroup on the given nodes.

        Each element points one step down its coset, at g s_j for its lowest
        right descent j in J (_lowest_bit), and each representative at
        itself.  k doublings of the pointers move each element 2^k steps
        down its chain, or to its representative if that is nearer.  The
        chain of g = g^J g_J has l(g_J) steps, and the longest, of l(w0_J)
        steps, is that of the last index, the longest element
        w0 = w0^J w0_J: so the pointers are doubled until ptr[-1] is a
        representative, and then all of them are.  A table is kept per node
        set.  SubgroupNotContained if a node is not an integer or not the
        index of a generator.
        """
        key = frozenset(nodes)
        for v in key:
            if not isinstance(v, (int, np.integer)):
                raise SubgroupNotContained("generator index %r is not an integer" % (v,))
        key = frozenset(map(int, key))
        if not all(0 <= v < self.n_gens for v in key):
            raise SubgroupNotContained("generator indices out of range")
        table = self._cosets.get(key)
        if table is not None:
            return table
        order = self.order
        step = _lowest_bit(self.descents & sum(1 << j for j in key))
        is_rep = step < 0
        # g s_j is entry j * order + g of the flattened rmult
        ptr = np.maximum(step, 0).astype(np.int32 if self.n_gens * order < 2**31 else np.int64)
        del step
        ptr *= order
        ptr += np.arange(order, dtype=np.int32)
        ptr = _gather(self.rmult.ravel(), ptr)
        # the representatives point at themselves
        np.copyto(ptr, np.arange(order, dtype=np.int32), where=is_rep)
        while not is_rep[ptr[-1]]:
            ptr = _gather(ptr, ptr)
        # cosets are numbered in order of their representatives (-1 elsewhere,
        # which no pointer reaches); the pointers are freed before the
        # representatives are listed
        number = np.full(order, -1, dtype=np.int32)
        number[is_rep] = np.arange(np.count_nonzero(is_rep), dtype=np.int32)
        coset_id = _gather(number, ptr)
        del number, ptr
        table = CosetTable(coset_id, np.flatnonzero(is_rep))
        for a in (coset_id, table.reps):
            a.setflags(write=False)
        self._cosets[key] = table
        return table

    def point_images(self, x: np.ndarray, elements=slice(None)) -> np.ndarray:
        """g*x for the given elements (all by default), without matrices.

        With x = sum_j y_j a_j, g*x = sum_j y_j g(a_j), added up one simple
        root at a time so that no (elements, n, dim) array is built.  The
        terms are gathered from the roots scaled by y_j once per call, so
        each product y_j g(a_j) is computed once per root, not per element.
        """
        roots = self.roots.roots
        y = np.linalg.solve(roots[: self.n_gens].T, np.asarray(x, dtype=np.float64))
        scaled = roots * y[:, None, None]
        cols = self.perms.T
        cols = cols[:, elements] if isinstance(elements, slice) else cols.take(elements, axis=1)
        out = scaled[0].take(cols[0], axis=0)
        for j in range(1, len(y)):
            out += scaled[j].take(cols[j], axis=0)
        return out


# _LOWEST_BIT[b] is the index of the lowest set bit of the byte b; for b = 0
# it is -128, which stays negative after adding a byte's shift (at most 56)
_LOWEST_BIT = np.array(
    [(b & -b).bit_length() - 1 if b else -128 for b in range(256)], dtype=np.int8
)


def _lowest_bit(bits: np.ndarray) -> np.ndarray:
    """Index of the lowest set bit of each entry (int8), negative where none is set.

    Read a byte at a time from _LOWEST_BIT; a higher byte counts only where
    the lower ones are all clear.
    """
    low = _gather(_LOWEST_BIT, bits & 0xFF)
    for shift in range(8, 8 * bits.itemsize, 8):
        np.copyto(low, _gather(_LOWEST_BIT, (bits >> shift) & 0xFF) + shift, where=low < 0)
    return low


def _gather(values: np.ndarray, index: np.ndarray) -> np.ndarray:
    """values[index], taken ROW_BLOCK indices at a time.

    take reads an index of another dtype than intp through an intp copy of
    it; a block at a time, that copy stays one block long, where a whole
    one would add 8 bytes an element to a coset table's peak (and, on B7,
    about 4 MB to a cold check's peak RSS).
    """
    out = np.empty(len(index), dtype=values.dtype)
    for lo in range(0, len(index), ROW_BLOCK):
        out[lo : lo + ROW_BLOCK] = values.take(index[lo : lo + ROW_BLOCK])
    return out


def _coset_minima(count: int, tables: list) -> np.ndarray:
    """Least member of each component of the graph x -- t[x] on 0..count-1.

    With the generator permutations of the roots the components are the
    root orbits (key_layout); with the columns of the flag moves' ordering
    table they are the components of the graph of selection orderings
    (face_lattice._flags_connected).  Each table must
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


# the groups enumerate_group holds, keyed by their Coxeter matrix's bytes,
# from the least to the most recently used
_held: dict[bytes, Group] = {}


def enumerate_group(d: DecoratedDiagram) -> Group:
    """Enumerate the reflection group of a finite-type diagram.

    Checks the formula order against enumeration_budget() before doing any
    work, so an oversized group (e.g. rank-7/8 E families) fails fast with
    BudgetExceeded naming the budget, a usage error for the cli.  Elements
    are numbered in the order the search finds them: by length, and within
    a length by key.  A group is returned again for the same Coxeter
    matrix in node order (element numbering follows node order), whatever
    the marks, while it is held: the most recently used groups are held,
    at most HOLD_LIMIT elements together, and a build drops the least
    recently used ones until the new group fits.  A group of more than
    HOLD_LIMIT elements is not kept, so it is built with nothing held.
    ToleranceCollision if the search does not find exactly the formula's
    number of elements, or if a row of rmult is not an involution.
    """
    budget = enumeration_budget()
    expected = group_order(d)
    if expected > budget:
        raise BudgetExceeded(
            "group order %d exceeds budget %d" % (expected, budget)
        )
    coxeter = coxeter_matrix(d)
    key = coxeter.tobytes()
    held = _held.pop(key, None)
    if held is not None:
        _held[key] = held  # back in last, as the most recently used
        return held
    # drop the least recently used groups until the new one fits; one over
    # HOLD_LIMIT is not kept, so it is built with nothing held
    while _held and sum(g.order for g in _held.values()) + expected > HOLD_LIMIT:
        del _held[next(iter(_held))]
    roots = root_system(d)
    gens = roots.perms
    n = d.rank
    key_table = key_layout(gens)
    count = gens.shape[1]
    # at i * count + a: moves holds s_i(a), and tables[j] the key term of
    # s_i w for an element w with w(a_j) = a
    moves = gens.ravel()
    tables = [row.take(gens).ravel() for row in key_table]
    # the search, layer after layer, each in key order, numbers the elements:
    # images[j, w] is w(a_j), lmult[i, w] is s_i w (-1 until found, at
    # i * expected + w of the flat view) and w = s_(gen_of[w]) parent[w]
    images = np.empty((n, expected), dtype=gens.dtype)
    lmult = np.full((n, expected), -1, dtype=np.int32)
    lflat = lmult.ravel()
    parent = np.empty(expected, dtype=np.int32)
    gen_of = np.empty(expected, dtype=np.int8)
    images[:, 0] = np.arange(n)
    bounds = [0, 1]
    while bounds[-1] > bounds[-2]:
        lo, hi = bounds[-2:]
        # s_i w lies a layer down exactly when it reached w by s_i, which
        # set lmult[i, w]; the other products are all new, and the equal
        # ones among them are found by sorting their keys
        gen, src = np.divmod((lmult[:, lo:hi] < 0).ravel().nonzero()[0], hi - lo)
        src += lo
        rows, base = images.take(src, axis=1), gen * count
        cand = tables[0].take(base + rows[0])
        for j in range(1, n):
            cand += tables[j].take(base + rows[j])
        by_key = cand.argsort()
        cand = cand.take(by_key)
        step = np.empty(len(cand), dtype=bool)
        step[:1] = True
        np.not_equal(cand[1:], cand[:-1], out=step[1:])
        heads = step.nonzero()[0]
        top = hi + len(heads)
        bounds.append(top)
        if top > expected:
            break
        ids = step.cumsum(dtype=np.int32)
        ids += hi - 1
        at, src_k = gen.take(by_key) * expected, src.take(by_key)
        lflat[at + src_k] = ids
        lflat[at + ids] = src_k
        first = by_key.take(heads)
        parent[hi:top] = src.take(first)
        gen_of[hi:top] = gen.take(first)
        images[:, hi:top] = moves.take(base.take(first) + rows.take(first, axis=1))
    total = bounds[-1]
    if total != expected:
        raise ToleranceCollision(
            "enumerated %d elements, formula says %d" % (total, expected)
        )
    # g = s_k p gives g s_i = s_k (p s_i): each layer's right products are
    # read off the layer before it through the flat left table
    flat_type = np.int32 if n * total < 2**31 else np.int64
    rmult = np.empty((n, total), dtype=np.int32)
    rmult[:, 0] = lmult[:, 0]
    for lo, hi in itertools.pairwise(bounds[1:-1]):
        at = rmult.take(parent[lo:hi], axis=1).astype(flat_type, copy=False)
        at += gen_of[lo:hi] * flat_type(total)
        rmult[:, lo:hi] = lflat.take(at)
    del lmult, lflat, parent, gen_of
    # bit i: g s_i lies in a lower layer, which ends where g's layer starts
    start = np.repeat(np.array(bounds[:-2], dtype=np.int32), np.diff(bounds[:-1]))
    descents = np.zeros(total, dtype=np.min_scalar_type(2**n - 1))
    for i, row in enumerate(rmult):
        descents |= (row < start).astype(descents.dtype) << i
    del start
    identity = np.arange(total, dtype=np.int32)
    for i, row in enumerate(rmult):
        if not np.array_equal(row.take(row), identity):
            raise ToleranceCollision("right multiplication by s_%d is not an involution" % i)
    group = Group(coxeter, roots, images.T, rmult, descents)
    if expected <= HOLD_LIMIT:
        _held[key] = group
    return group
