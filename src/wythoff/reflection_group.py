"""Finite reflection groups enumerated as permutations of their root set.

Simple mirror normals come from the Cholesky factor of the diagram's Gram
matrix.  The root set is their closure under the generating reflections,
listing them first; every group element permutes the root list.  The
closure decides which reflected root is new on an exact integer form of
the roots (the geometric representation, Humphreys 5.3), so no step of
this layer rests on a tolerance: roots, elements and cosets are all
told apart as exact integers, and the float roots are only carried along
for the points of the geometry layer.

An element w is kept as its images of the n simple roots a_j only.  These
fix w, since w is linear and the simple roots are a basis.  The geometry
layer reads its point images off them, and right multiplication (rmult)
comes from the enumeration, so no per-element array of any other root is
built.

The group is built along the node chain J_k = {0, ..., k-1}.  Each
W_(J_k) factors as W_(J_(k-1)) U_k with lengths adding, U_k being the
elements of W_(J_k) with no left descent in J_(k-1), the minimal
representatives of the cosets W_(J_(k-1)) u (Bjorner-Brenti, Combinatorics
of Coxeter Groups, 2.4.4).  So every element is u_1 u_2 ... u_n, once, and
is numbered by mixed radix: v u gets u |W_(J_(k-1))| + v.  Each U_k is
small and is found by a breadth-first search of right multiplication, which
keeps whole root rows for its current layer only; U_k is closed under
prefixes, so the search depth is the length, and the level must have
|W_(J_k)| / |W_(J_(k-1))| members.  Right multiplication follows Deodhar's
lemma: for u in U_k, u s_i is again in U_k, or it is s_t u for a t in
J_(k-1), and this carry happens exactly when u(a_i) = +-a_t, an exact
root index.  So v u s_i is v u' or (v s_t) u: rmult at level k is
mixed-radix arithmetic plus the carry into rmult of the level below, with
no left table and no dedup.  The images are one gather per level: w = v u
sends a root r to v(u(r)), and each level keeps, for the level above it,
only the images of the roots that level reads, down to the n simple roots
at the top.

Elements are then renumbered by length, and within a length by key, the
order every table keeps.  The image w(a_j) lies in the W-orbit of a_j, so
it is written as its digit, its rank within that orbit in root-index
order, and the key is the mixed-radix number sum_j digit[w(a_j)] * place_j,
where place_j is the product of the orbit sizes of a_(j+1), ..., a_n.
Distinct images give distinct digit strings, so the key is injective, and
the sorted keys must all differ.  Keys are uint64 and the key space is the
product of the n orbit sizes: 2^49.4 for A8, 2^63.3 for E8.  A group whose
key space exceeds 2^64 is refused (BudgetExceeded) before any per-element
array is built.  One argsort of the keys and one stable sort of the
lengths in key order give the numbering, so index 0 is the identity and a
longer element always has a larger index.  No element is looked up by its
key, and the keys are not kept.  The images are kept column by column, one
row of |G| entries per simple root, and Group.perms is their (|G|, n)
transposed view.  With them come the right descents: bit i of
descents[w] is set when w s_i lies in a lower layer, which holds exactly
when w(a_i) is a negative root.  Two more checks close the build: every
row of rmult is an involution, and w s_i sends a_i to -w(a_i).

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
tables, for every decoration of their matrices: a sweep that comes back
to a matrix skips both the enumeration and the coset tables.  The held
groups have at most HOLD_LIMIT elements together, the least recently used
are dropped first to make room, and a larger group is not kept, so what a
process holds between calls stays small.  Their arrays are read-only, so no caller
can change what later callers read.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .diagram import DecoratedDiagram, classify_components, group_order, parabolic_order
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

    Elements are numbered by length, and within a length by key
    (enumerate_group), so index 0 is the identity and the least index
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
    words are kept: the keys and the chain exist only inside
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


def _negatives(gens: np.ndarray) -> np.ndarray:
    """neg[r], the index of the root -r, read off the closure's order.

    -a_t = s_t(a_t), and a later root r was reached from a root listed
    before it, the least of its images s_i(r): so -r = s_i(-s_i(r)).
    """
    n, count = gens.shape
    g = gens.tolist()
    neg = [g[t][t] for t in range(n)]
    for r in range(n, count):
        p, i = min((g[i][r], i) for i in range(n))
        neg.append(g[i][neg[p]])
    return np.array(neg, dtype=gens.dtype)


def _coset_walk(gens, carry_at, k, cols, size):
    """U_k, the elements of W_(J_k) with no left descent in J_(k-1).

    A breadth-first search from the identity by right multiplication by
    s_0, ..., s_(k-1).  For u in U_k, u s_i either lies in U_k again, or
    u s_i = s_t u for a t in J_(k-1) (Deodhar's lemma), and that carry
    happens exactly when u(a_i) = +-a_t, read from exact root indices by
    carry_at.  Which products are new is decided by their images of the
    simple roots.  U_k is closed under prefixes, so the search depth is the
    length.  Only the search layer keeps whole root rows.  Returns each
    member's images of the roots cols, its length, and step[u, i]: the
    index of u s_i in U_k, or -1 - t for a carry into s_t.
    ToleranceCollision, naming the level, unless U_k has size members.
    """
    n, count = gens.shape

    def mismatch(found):
        return ToleranceCollision(
            "chain level %d (nodes 0..%d): %s coset representatives, orders say %d"
            % (k, k - 1, found, size)
        )

    # -1 - t at the roots +-a_t with t in J_(k-1), 0 at the others
    code = np.where((carry_at >= 0) & (carry_at < k - 1), -1 - carry_at, 0).astype(np.int32)
    images = np.empty((size, len(cols)), dtype=gens.dtype)
    lengths = np.empty(size, dtype=np.int64)
    step = np.empty((size, k), dtype=np.int32)
    layer = np.arange(count, dtype=gens.dtype)[None, :]
    seen = {layer[0, :n].tobytes(): 0}
    lo, hi = 0, 1
    images[0], lengths[0] = cols, 0
    while lo < hi:
        at = step[lo:hi]
        code.take(layer[:, :k], out=at)
        prods = layer.take(gens[:k], axis=1)
        new = []
        for p, i in zip(*(a.tolist() for a in (at == 0).nonzero())):
            key = prods[p, i, :n].tobytes()
            u = seen.get(key)
            if u is None:
                u = seen[key] = len(seen)
                if u == size:
                    raise mismatch("over %d" % size)
                new.append(prods[p, i])
            at[p, i] = u
        layer = np.array(new, dtype=gens.dtype).reshape(len(new), count)
        lo, hi = hi, hi + len(new)
        layer.take(cols, axis=1, out=images[lo:hi])
        lengths[lo:hi] = lengths[lo - 1] + 1
    if hi != size:
        raise mismatch(hi)
    return images, lengths, step


def _chain_rmult(below: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Right multiplication on W_(J_k), element u * |W_(J_(k-1))| + v for v u.

    v u s_i is v u' when u s_i = u' stays in U_k, and (v s_t) u when it
    carries into s_t: mixed-radix arithmetic, and one read of the table
    below for each carry.
    """
    m, k = step.shape
    size = below.shape[1]
    out = np.empty((k, m, size), dtype=np.int32)
    span = np.arange(size, dtype=np.int32)
    for i, row in enumerate(step.T):
        stays, carries = row >= 0, row < 0
        out[i][stays] = span + (row[stays] * size)[:, None]
        out[i][carries] = below.take(-1 - row[carries], axis=0) + (
            np.flatnonzero(carries).astype(np.int32) * size
        )[:, None]
    return out.reshape(k, -1)


def _element_keys(key_table: np.ndarray, images: np.ndarray) -> np.ndarray:
    """Each element's key, sum_j key_table[j, w(a_j)], ROW_BLOCK elements at a time."""
    keys = np.empty(images.shape[1], dtype=np.uint64)
    for lo in range(0, len(keys), ROW_BLOCK):
        block = keys[lo : lo + ROW_BLOCK]
        key_table[0].take(images[0, lo : lo + ROW_BLOCK], out=block)
        for j in range(1, len(key_table)):
            block += key_table[j].take(images[j, lo : lo + ROW_BLOCK])
    return keys


def enumerate_group(d: DecoratedDiagram) -> Group:
    """Enumerate the reflection group of a finite-type diagram.

    Checks the formula order against enumeration_budget() before doing any
    work, so an oversized group (e.g. rank-7/8 E families) fails fast with
    BudgetExceeded naming the budget, a usage error for the cli.  Elements
    are numbered by length, and within a length by key.  A group is returned
    again for the same Coxeter matrix in node order (element numbering
    follows node order), whatever the marks, while it is held: the most
    recently used groups are held, at most HOLD_LIMIT elements together, and
    a build drops the least recently used ones until the new group fits.  A
    group of more than HOLD_LIMIT elements is not kept, so it is built with
    nothing held.  ToleranceCollision if a level of the chain does not have
    the orders' number of coset representatives, if the levels do not make
    up the formula's number of elements, if two elements share a key, or if
    a row of rmult is not an involution or does not send a_i to -w(a_i).
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
    n, count = gens.shape
    key_table = key_layout(gens)
    neg = _negatives(gens)
    carry_at = np.full(count, -1, dtype=np.int64)
    carry_at[np.arange(n)] = carry_at[neg[:n]] = np.arange(n)
    # the levels top down, each U_k keeping its images of the roots level
    # k + 1 reads (the simple roots at the top); then W_(J_k) bottom up,
    # element u * |W_(J_(k-1))| + v for v u, each table one gather of the
    # one below, kept one row per root
    levels, cols = [], np.arange(n)
    orders = [parabolic_order(d, range(k)) for k in range(n + 1)]
    for k in range(n, 0, -1):
        images, ulen, step = _coset_walk(gens, carry_at, k, cols, orders[k] // orders[k - 1])
        # the roots this level reads, and each image as its place among them
        used = np.zeros(count, dtype=bool)
        used[images] = True
        cols, place = used.nonzero()[0], used.cumsum() - 1
        levels.append((place.take(images).T, ulen, step))
    # table[c, w] is w's image of the root cols[c], for the cols of the level
    # above; at the top, row j holds every w(a_j)
    table = cols[:, None].astype(gens.dtype)
    rmult = np.empty((0, 1), dtype=np.int32)
    length = np.zeros(1, dtype=np.min_scalar_type(count // 2))
    for images, ulen, step in reversed(levels):
        rmult = _chain_rmult(rmult, step)
        length = (ulen.astype(length.dtype)[:, None] + length).ravel()
        table = table.take(images, axis=0).reshape(len(images), -1)
    images, total = table, len(length)
    del levels, table
    if total != expected:
        raise ToleranceCollision(
            "enumerated %d elements, formula says %d" % (total, expected)
        )
    # renumber by length, then key: a stable sort of the lengths in key order
    keys = _element_keys(key_table, images)
    by_key = keys.argsort()
    keys = keys.take(by_key)
    if not (keys[1:] > keys[:-1]).all():
        raise ToleranceCollision("two elements share their images of the simple roots")
    del keys
    order = by_key.take(length.take(by_key).argsort(kind="stable"))
    del by_key
    rank = np.empty(total, dtype=np.int32)
    rank[order] = np.arange(total, dtype=np.int32)
    for row in images:
        row[:] = row.take(order)
    for row in rmult:
        row[:] = _gather(rank, row.take(order))
    del rank
    # bit i: g s_i lies in a lower layer, which ends where g's layer starts
    sizes = np.bincount(length)
    del order, length
    start = np.repeat((np.cumsum(sizes) - sizes).astype(np.int32), sizes)
    descents = np.zeros(total, dtype=np.min_scalar_type(2**n - 1))
    for i, row in enumerate(rmult):
        descents |= (row < start).astype(descents.dtype) << i
    del start
    identity = np.arange(total, dtype=np.int32)
    for i, row in enumerate(rmult):
        if not np.array_equal(_gather(row, row), identity):
            raise ToleranceCollision("right multiplication by s_%d is not an involution" % i)
        if not np.array_equal(_gather(images[i], row), _gather(neg, images[i])):
            raise ToleranceCollision("w s_%d does not send a_%d to -w(a_%d)" % (i, i, i))
    group = Group(coxeter, roots, images.T, rmult, descents)
    if expected <= HOLD_LIMIT:
        _held[key] = group
    return group
