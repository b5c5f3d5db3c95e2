"""Second routes kept as test oracles for the library's flag and incidence checks.

Each flag, diamond, containment and root-permutation function here is the
route the library took before it switched to a cheaper exact one; tests
assert that both routes agree.  The flag routes list every flag
(flag_rows), or find each flag move by searching the whole parabolic
subgroup on the nodes common to the other slots' node sets and decide
connectivity from the holonomy of the graph of orderings
(flag_moves_by_search, a {(c, k): (h, c')} dict with h an element, and
flag_report_by_holonomy), where the library reads each move as the
identity or one simple reflection and keeps the moves as two integer
tables, the reflection's node and the next ordering.  These are the only
users of scipy.  flag_moves_by_cover_scan builds those tables the way the
library did before one walk over the slot triples fed both the diamond
check and the moves: it scans every slot of a rank per (ordering, rank)
and tests membership in sorted keys by found_at.  The element matrices,
the reflection count, the Gram definiteness test and the vertex figure are
independent views of the group, the diagram and the lattice that only
tests read, and so is face_rank, the rank of every face id.  enumerate_by_search is the
group's route before the parabolic chain: a search over all of W by
layers that keys the ascents s_i w and deduplicates each layer by a sort.
The group keeps only the images of the simple roots and no words; full_rows rebuilds every column along a
search tree of rmult, word, lengths and walk give words, their lengths
and products along that tree, and element_index, compose and inverse
multiply by composing permutation rows.  rmult_by_key_lookup (each g s_i found by its element
key, its images of the simple roots matched from float combinations of
the kept ones) and coset_table_by_hooking (the components of rmult
restricted to J, by _coset_minima) are the group tables' routes before
the library read them off the search and its descent bits, and
point_images_by_products (each term y_j g(a_j) multiplied per element) is
the point images' route before they were gathered from pre-scaled roots.
The minimum
separation by a walk along one sorted projection is the point kernel's
route before its cell grid.  coset_pairs_by_sort (one key per element of
G, deduplicated by sorted_unique) is the incidence rule's route before it
read only the minimal coset representatives.  The cover pairs and the
face-vertex lists by np.unique, and the affine rank check with one SVD
per face, are the routes before a sorted dedup and the one SVD per slot.
edge_lengths_by_norm (np.linalg.norm of the fancy-indexed edge ends) is
the edge lengths' route before both ends were gathered by take.
ridge_normals (one SVD per ridge) is the regularity witnesses' route
before one base ridge per slot decided the slot.
The node-selection rewrite (select_node, which raises NotApplicable on a
node not valued 1, and the BFS reachable_decorations) keeps its own copy of
the step the library's selection search applies.  The closed form
(selection_sets_by_components: every size-k node set whose induced
components each hold a ring, in combinations order; decoration_by_formula:
2 on the set, 1 on the rings and the set's neighbors) is the route
valid_selection_sets and decoration_from_selection took before they were
read off the rewrite, and ordering_count counts the maximal rewrite chains
by summing over the reachable decorations.  constructions_of looks a named
regular polytope up in the regular catalog.  _REGULAR_POSITIONS, read by
_classify and _classify_component, is the hand-written table of regular
ring positions and their gap reasons that the regularity verdict, the gap
reasons and the catalog read before they were derived from the face
types; shape_signature (a face's f-vector with its facets' signatures,
recursively) and witness_by_signature, which compares it across each
rank's face types, are the regularity witness's route before it compared
the face diagrams' f-vectors.
"""

import functools
import itertools
from dataclasses import dataclass
from itertools import combinations

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from wythoff import _kernels
from wythoff.decoration import (
    ACTIVE,
    CROSSED,
    SELECTED,
    Decoration,
    f_vector_formula,
    face_restriction,
    face_types,
    orbit_size,
    start_decoration,
)
from wythoff.errors import (
    InvalidS,
    SpanDeficient,
    ToleranceCollision,
    UnknownName,
    UnsupportedDimension,
    WythoffError,
)
from wythoff.face_lattice import DiamondReport, FaceLattice, FlagReport, _walk_code
from wythoff.geometry import AFFINE_RANK_TOL, CheckReport
from wythoff.diagram import (
    RING,
    DecoratedDiagram,
    canonical_certificate,
    classify_components,
    group_order,
)
from wythoff.reflection_group import (
    CosetTable,
    Group,
    RootSystem,
    _coset_minima,
    _gather,
    _lowest_bit,
    coxeter_matrix,
    gram_matrix,
    key_layout,
    root_system,
)
from wythoff.regular import canonical_name, known_f_vector, polygon_name, regular_catalog

# the float root oracles' own tolerances: reflected roots match within
# ROOT_MATCH_TOL, and a root set with two roots closer than ROOT_SEPARATION
# is refused, since matching could no longer tell them apart
ROOT_MATCH_TOL = 1e-6
ROOT_SEPARATION = 1e-3


@functools.cache
def _search_tree(g):
    """A breadth-first tree of g over rmult from the identity.

    Returns (parent, gen, layers): every element w but the identity is
    parent[w] s_gen[w], and layers lists the elements by word length.  Kept
    per group for the session, like the suite's shared groups.
    """
    parent = np.full(g.order, -1, dtype=np.int64)
    gen = np.full(g.order, -1, dtype=np.int64)
    seen = np.zeros(g.order, dtype=bool)
    seen[0] = True
    layers = [np.array([0])]
    while len(layers[-1]):
        frontier, nxt = layers[-1], []
        for i, table in enumerate(g.rmult):
            cand = table[frontier]
            new = ~seen[cand]
            cand, first = np.unique(cand[new], return_index=True)
            seen[cand] = True
            parent[cand] = frontier[new][first]
            gen[cand] = i
            nxt.append(cand)
        layers.append(np.concatenate(nxt))
    assert seen.all(), "rmult does not reach every element"
    return parent, gen, layers[:-1]


def enumerate_by_search(d) -> Group:
    """The group by a search over all of W by layers, the library's route before the chain.

    Layer k holds the elements of length k.  Each product found, s_i w = w',
    sets lmult[i, w] = w' and lmult[i, w'] = w, so an unset entry of the
    frontier marks an ascent; only the ascents are keyed, and the equal ones
    among them are found by sorting their keys.  Elements are numbered in
    the order the search finds them, by length and within a length by key.
    rmult is read off the flat left table (w = s_k p gives w s_i =
    s_k (p s_i)), and bit i of descents marks w s_i in a lower layer.  No
    budget and no hold.
    """
    roots = root_system(d)
    gens = roots.perms
    n, count = gens.shape
    expected = group_order(d)
    key_table = key_layout(gens)
    # at i * count + a: moves holds s_i(a), and tables[j] the key term of
    # s_i w for an element w with w(a_j) = a
    moves = gens.ravel()
    tables = [row.take(gens).ravel() for row in key_table]
    images = np.empty((n, expected), dtype=gens.dtype)
    lmult = np.full((n, expected), -1, dtype=np.int32)
    lflat = lmult.ravel()
    parent = np.empty(expected, dtype=np.int32)
    gen_of = np.empty(expected, dtype=np.int8)
    images[:, 0] = np.arange(n)
    bounds = [0, 1]
    while bounds[-1] > bounds[-2]:
        lo, hi = bounds[-2:]
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
        assert top <= expected, "more elements than the formula's order"
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
    assert total == expected, "fewer elements than the formula's order"
    flat_type = np.int32 if n * total < 2**31 else np.int64
    rmult = np.empty((n, total), dtype=np.int32)
    rmult[:, 0] = lmult[:, 0]
    for lo, hi in itertools.pairwise(bounds[1:-1]):
        at = rmult.take(parent[lo:hi], axis=1).astype(flat_type, copy=False)
        at += gen_of[lo:hi] * flat_type(total)
        rmult[:, lo:hi] = lflat.take(at)
    start = np.repeat(np.array(bounds[:-2], dtype=np.int32), np.diff(bounds[:-1]))
    descents = np.zeros(total, dtype=np.min_scalar_type(2**n - 1))
    for i, row in enumerate(rmult):
        descents |= (row < start).astype(descents.dtype) << i
    sizes = np.diff(bounds[:-1]).astype(np.int32)
    return Group(coxeter_matrix(d), roots, images.T, rmult, descents, sizes)


def word(g, a: int) -> tuple[int, ...]:
    """One generator word for element a, left factors first: a = s_w0 s_w1 ..."""
    parent, gen, _ = _search_tree(g)
    out = []
    while parent[a] != -1:
        out.append(int(gen[a]))
        a = int(parent[a])
    return tuple(out[::-1])


def lengths(g) -> np.ndarray:
    """len(word(g, a)) for every element a: its layer in the search tree."""
    out = np.empty(g.order, dtype=np.int64)
    for k, layer in enumerate(_search_tree(g)[2]):
        out[layer] = k
    return out


def walk(g, start, gens):
    """start s_w0 s_w1 ... for the generator indices in gens, by rmult.

    start is one element index or an array of them; walk(g, x, word(g, a))
    is the product x a.
    """
    for i in gens:
        start = g.rmult[i][start]
    return start


@functools.cache
def full_rows(g) -> np.ndarray:
    """(order, roots): row a is element a's permutation of the whole root list.

    Filled along _search_tree, in order of word length: w = p s_i sends
    root c to p(s_i(c)), so the row of w is the row of p read at the
    columns of s_i's permutation.  Kept per group for the session.
    """
    gens = g.roots.perms
    parent, gen, layers = _search_tree(g)
    rows = np.empty((g.order, g.roots.count), dtype=gens.dtype)
    rows[0] = np.arange(g.roots.count)
    for layer in layers[1:]:
        for i, gp in enumerate(gens):
            sel = layer[gen[layer] == i]
            rows[sel] = rows[parent[sel]][:, gp]
    return rows


def group_matrices(g) -> np.ndarray:
    """Orthogonal matrix of every element of g, batched (order, n, n)."""
    s_inv = np.linalg.inv(g.roots.roots[: g.n_gens].T)
    t = g.roots.roots[full_rows(g)[:, : g.n_gens]]
    return np.einsum("gdj,je->gde", t.transpose(0, 2, 1), s_inv)


def _as_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque bytes key per row, for sorting and searching whole rows."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()


@functools.cache
def _sorted_row_keys(g) -> tuple[np.ndarray, np.ndarray]:
    # kept per group for the session, like the suite's shared groups
    keys = _as_keys(full_rows(g))
    order = np.argsort(keys)
    return keys[order], order


def element_indices(g, rows) -> np.ndarray:
    """Indices of the elements of g with these permutation rows; KeyError if any is none.

    A search among the sorted bytes of full_rows: it reads no key of the
    library and walks no word.
    """
    keys, order = _sorted_row_keys(g)
    want = _as_keys(np.atleast_2d(rows).astype(full_rows(g).dtype))
    pos = np.minimum(np.searchsorted(keys, want), len(keys) - 1)
    if not (keys[pos] == want).all():
        raise KeyError("permutation is not a group element")
    return order[pos]


def element_index(g, row) -> int:
    """Index of the element of g with this permutation row; KeyError if none."""
    return int(element_indices(g, row)[0])


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

    Every float root is reflected and matched back within ROOT_MATCH_TOL;
    root_system reads the same permutations off its exact closure.
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


def _row_keys(key_table: np.ndarray, rows: np.ndarray, cols=None) -> np.ndarray:
    """uint64 keys of rows whose image of a_j sits in column cols[j] (default j).

    Accumulated column by column, so no (rows, n) array of key terms is built.
    """
    cols = range(len(key_table)) if cols is None else cols
    keys = key_table[0][rows[:, cols[0]]]
    for j in range(1, len(key_table)):
        keys += key_table[j][rows[:, cols[j]]]
    return keys


def rmult_by_key_lookup(g) -> np.ndarray:
    """rmult with every g s_i looked up by its key; KeyError if one is missing.

    The element keys of the library's key_layout, read off g.perms, are
    sorted once and must be distinct.  Row g s_i sends a_j to g(s_i a_j) =
    g(a_j) - 2 (a_i . a_j) g(a_i), a float combination of two kept images
    that is matched back to a root; its key is searched among them.  Each
    distinct pair of images is matched once.
    """
    roots = g.roots.roots
    n = g.n_gens
    key_table = key_layout(g.roots.perms)
    keys = _row_keys(key_table, g.perms)
    order = np.argsort(keys)
    keys = keys[order]
    assert (keys[1:] > keys[:-1]).all(), "two elements have one key"
    rmult = np.empty((n, g.order), dtype=np.int32)
    for i in range(n):
        images = np.empty_like(g.perms)
        for j in range(n):
            pair = g.perms[:, j].astype(np.int64) * g.roots.count + g.perms[:, i]
            pair, where = np.unique(pair, return_inverse=True)
            a, b = np.divmod(pair, g.roots.count)
            combo = roots[a] - 2.0 * (roots[i] @ roots[j]) * roots[b]
            hits = _kernels.match_rows(combo, roots, ROOT_MATCH_TOL)
            if (hits < 0).any():
                raise ToleranceCollision("reflected root image missing from root set")
            images[:, j] = hits[where]
        want = _row_keys(key_table, images)
        pos = np.searchsorted(keys, want)
        if not found_at(keys, want, pos).all():
            raise KeyError("permutation is not a group element")
        rmult[i] = order[pos]
    return rmult


def point_images_by_products(g, x, elements=slice(None)) -> np.ndarray:
    """g*x for the given elements, each term y_j g(a_j) multiplied per element.

    With x = sum_j y_j a_j, the gathered images of a_j are scaled by y_j and
    added up one simple root at a time, the order Group.point_images adds
    its pre-scaled terms in.
    """
    roots = g.roots.roots
    y = np.linalg.solve(roots[: g.n_gens].T, np.asarray(x, dtype=np.float64))
    rows = g.perms[elements]
    out = roots[rows[:, 0]] * y[0]
    for j in range(1, len(y)):
        out += roots[rows[:, j]] * y[j]
    return out


def coset_table_by_hooking(g, nodes) -> CosetTable:
    """The left cosets g W_J as the components of g -- g s_j, j in J, over rmult.

    Each component is labelled with its least member by _coset_minima's
    hooking rounds over all |G| elements, and numbered in order of it.
    """
    label = _coset_minima(g.order, list(g.rmult[sorted(nodes)]))
    is_rep = label == np.arange(g.order)
    coset_id = (np.cumsum(is_rep, dtype=np.int32) - 1)[label]
    return CosetTable(coset_id, np.flatnonzero(is_rep))


def coset_table_by_doubling(g, nodes) -> CosetTable:
    """The left cosets g W_J by pointer doubling over all of G.

    Each element points one step down its coset, at g s_j for its lowest
    right descent j in J, and each representative at itself.  k doublings
    of the pointers move each element 2^k steps down its chain, or to its
    representative if that is nearer.  The last index, w0 = w0^J w0_J, has
    the longest chain, of l(w0_J) steps, so the pointers are doubled until
    ptr[-1] is a representative, and then all of them are.
    """
    order = g.order
    step = _lowest_bit(g.descents & sum(1 << j for j in nodes))
    is_rep = step < 0
    # g s_j is entry j * order + g of the flattened rmult
    ptr = np.maximum(step, 0).astype(np.int32 if g.n_gens * order < 2**31 else np.int64)
    del step
    ptr *= order
    ptr += np.arange(order, dtype=np.int32)
    ptr = _gather(g.rmult.ravel(), ptr)
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
    return CosetTable(coset_id, np.flatnonzero(is_rep))


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
        return FlagReport(count, False, False, "direct"), None
    partners = np.empty((n, count), dtype=np.int64)
    for k, edges in enumerate(per_rank):
        partners[k, edges[:, 0]] = edges[:, 1]
        partners[k, edges[:, 1]] = edges[:, 0]
    graph = sp.coo_matrix(
        (np.ones(n * count, dtype=np.int8), (np.tile(np.arange(count), n), partners.ravel())),
        shape=(count, count),
    )
    ncomp, _ = connected_components(graph, directed=False)
    return FlagReport(count, True, ncomp == 1, "direct"), partners


def _parabolic(g, nodes) -> np.ndarray:
    """Sorted elements of W_J, walked out from the identity along rmult."""
    visited = np.zeros(g.order, dtype=bool)
    visited[0] = True
    frontier = np.array([0])
    tables = g.rmult[sorted(nodes)]
    while frontier.size:
        cand = tables[:, frontier].ravel()
        cand = np.unique(cand[~visited[cand]])
        visited[cand] = True
        frontier = cand
    return np.flatnonzero(visited)


def flag_moves_by_search(lat: FaceLattice) -> dict | None:
    """The move of flag (c, identity) at every rank k, by a subgroup search.

    Returns {(c, k): (h, c')}, h an element index: the rank-k neighbor of
    (c, identity) is (c', h).  The two faces between the flag's rank-(k-1)
    and rank-(k+1) faces are the cosets of nested slots that meet both of
    their subgroups W_J, the elements of coset 0, where the library reads
    its cover blocks; h is the one element of W_K, K the nodes in every
    stabilizer of the flag's other faces, that carries the flag's face to
    the other one, found by searching the whole of W_K.  None when some
    flag does not have exactly two faces there; WythoffError when h is not
    unique.
    """
    g = lat.group
    n = lat.n
    chain_idx = {c: i for i, c in enumerate(lat.chains)}
    slots = lat.slots_by_rank
    parabolics = {}
    moves = {}
    for ci, chain in enumerate(lat.chains):
        for k in range(n):
            lower = slots[k - 1][chain[k - 1]] if k > 0 else None
            upper = slots[k + 1][chain[k + 1]] if k + 1 < n else None
            mids = []
            for si, s in enumerate(slots[k]):
                if lower is not None and not lower.selection < s.selection:
                    continue
                if upper is not None and not s.selection < upper.selection:
                    continue
                here = np.arange(s.count)
                for bound in (lower, upper):
                    if bound is not None:
                        meets = s.table.coset_id[np.flatnonzero(bound.table.coset_id == 0)]
                        here = np.intersect1d(here, meets)
                mids.extend((si, int(c)) for c in here)
            base_face = (chain[k], int(slots[k][chain[k]].table.coset_id[0]))
            if len(mids) != 2 or base_face not in mids:
                return None
            other_slot, other_coset = next(m for m in mids if m != base_face)
            others = [slots[j][chain[j]].nodes for j in range(n) if j != k]
            inter = frozenset.intersection(*others) if others else frozenset(range(n))
            if inter not in parabolics:
                parabolics[inter] = _parabolic(g, inter)
            pk = parabolics[inter]
            hs = pk[slots[k][other_slot].table.coset_id[pk] == other_coset]
            if len(hs) != 1:
                raise WythoffError("flag move is not unique")
            new_chain = chain[:k] + (other_slot,) + chain[k + 1 :]
            moves[(ci, k)] = (int(hs[0]), chain_idx[new_chain])
    return moves


def flag_moves_by_cover_scan(lat: FaceLattice) -> tuple[np.ndarray, np.ndarray] | None:
    """face_lattice._flag_moves, with the faces between found by a slot scan.

    For each ordering and rank, every slot of the rank is scanned for the
    faces over coset 0 of the flag's lower slot, read off the lower block
    sorted by i, that lie under coset 0 of its upper slot, found by a
    searchsorted membership test (found_at).  Below the vertices sits the
    bottom, offset -1, under which every vertex lies.  A face is listed once
    per cover of the lower coset 0 that reaches it, and the flag's own face
    listed twice is no move.  The library reads the same faces off its one
    walk over the slot triples.
    """
    rmult = lat.group.rmult
    n = lat.n
    chain_idx = {c: i for i, c in enumerate(lat.chains)}
    slots = lat.slots_by_rank
    v = slots[0][0]
    over, under = {(-1, v.offset): np.arange(v.count)}, {}
    for lo, hi, i, j in lat.cover_blocks:
        over[lo.offset, hi.offset] = j[: np.searchsorted(i, 1)]
        under[lo.offset, hi.offset] = i[j == 0]

    @functools.cache
    def faces_between(k, lower, upper):
        out = []
        for si, s in enumerate(slots[k]):
            a, b = over.get((lower, s.offset)), under.get((s.offset, upper))
            if a is not None and b is not None:  # else the selections do not nest
                out.extend((si, c) for c in a[found_at(b, a, np.searchsorted(b, a))].tolist())
        return out

    gen = np.full((len(chain_idx), n), -1, dtype=np.int64)
    nxt = np.empty_like(gen)
    for ci, chain in enumerate(lat.chains):
        bounds = [-1] + [slots[k][c].offset for k, c in enumerate(chain)] + [lat.top_id]
        for k in range(n):
            mids = faces_between(k, bounds[k], bounds[k + 2])
            if len(mids) != 2 or (chain[k], 0) not in mids or mids[0] == mids[1]:
                return None
            other_slot, other_coset = next(m for m in mids if m != (chain[k], 0))
            if other_slot == chain[k]:
                others = [slots[j][chain[j]].nodes for j in range(n) if j != k]
                inter = frozenset.intersection(*others) if others else frozenset(range(n))
                if len(inter) == 1:
                    gen[ci, k] = min(inter)
            # the other face must be the coset of the move's element
            h = 0 if gen[ci, k] < 0 else rmult[gen[ci, k], 0]
            if slots[k][other_slot].table.coset_id[h] != other_coset:
                raise WythoffError("flag move is not unique")
            nxt[ci, k] = chain_idx[chain[:k] + (other_slot,) + chain[k + 1 :]]
    return gen, nxt


@functools.cache
def _right_table(g, w: int) -> np.ndarray:
    """x -> x w for every element x, by composing permutation rows."""
    rows = full_rows(g)
    return element_indices(g, rows[:, rows[w]])


def flag_report_by_holonomy(lat: FaceLattice, moves: dict | None) -> FlagReport:
    """FlagReport from the holonomy of the graph of orderings, by permutation rows.

    moves is flag_moves_by_search(lat).  A search from ordering 0 gives each
    reached ordering c a tree element p[c], with p[cj] = p[ci] h along the
    tree; every other move (ci, k) -> (h, cj) with ci <= cj adds the
    holonomy p[ci] h p[cj]^-1 unless it is the identity.  The flag graph is
    connected when every ordering is reached and joining every x to x w,
    for the holonomy elements w, connects the group.
    """
    g = lat.group
    count = lat.flag_count()
    if moves is None:
        return FlagReport(count, False, False, "holonomy")
    p = {0: 0}
    queue = [0]
    holonomy = set()
    while queue:
        ci = queue.pop()
        for k in range(lat.n):
            h, cj = moves[(ci, k)]
            if cj not in p:
                p[cj] = compose(g, p[ci], h)
                queue.append(cj)
            elif ci <= cj:
                w = compose(g, compose(g, p[ci], h), inverse(g, p[cj]))
                if w:
                    holonomy.add(w)
    if len(p) != len(lat.chains):
        return FlagReport(count, True, False, "holonomy")
    ends = [_right_table(g, w) for w in sorted(holonomy)]
    graph = sp.coo_matrix(
        (
            np.ones(len(ends) * g.order, dtype=np.int8),
            (np.tile(np.arange(g.order), len(ends)), np.concatenate([[], *ends]).astype(np.int64)),
        ),
        shape=(g.order, g.order),
    )
    ncomp, _ = connected_components(graph, directed=False)
    return FlagReport(count, True, ncomp == 1, "holonomy")


def flag_partners_by_rows(lat: FaceLattice, moves: dict) -> np.ndarray:
    """flag_partners from the moves of flag_moves_by_search, by permutation rows."""
    order = lat.group.order
    out = np.empty((lat.n, lat.flag_count()), dtype=np.int64)
    for (c, k), (h, cj) in moves.items():
        out[k, c * order : (c + 1) * order] = cj * order + _right_table(lat.group, h)
    return out


def face_rank(lat: FaceLattice) -> np.ndarray:
    """Rank of every face id; ids are numbered rank by rank."""
    sizes = [sum(s.count for s in sl) for sl in lat.slots_by_rank]
    return np.repeat(np.arange(lat.n + 1), sizes)


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


@dataclass
class VertexFigure:
    face_ids: list          # per rank 1..n-1, sorted global ids
    covers: np.ndarray

    @property
    def counts(self) -> tuple[int, ...]:
        return tuple(len(f) for f in self.face_ids)


def vertex_figure(lat: FaceLattice) -> VertexFigure:
    """Faces through the base vertex: cosets meeting its stabilizer.

    The base vertex is the rank-0 face whose coset contains the identity;
    a face contains it exactly when its coset meets the vertex stabilizer
    (the parabolic on the crossed nodes), so one coset per decoration per
    stabilizer orbit shows up, e.g. 3 edges + 3 squares for the cube.
    """
    stab = np.flatnonzero(lat.slots_by_rank[0][0].table.coset_id == 0)
    mark = np.zeros(lat.face_total, dtype=bool)
    for sl in lat.slots_by_rank[1 : lat.n]:
        for s in sl:
            mark[s.table.coset_id[stab] + s.offset] = True
    ids = [np.flatnonzero(mark & (face_rank(lat) == k)).tolist() for k in range(1, lat.n)]
    cov = lat.covers
    return VertexFigure(ids, cov[mark[cov].all(axis=1)])


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

    Each product's columns are sorted, so the violations come in (lower,
    upper) order.
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
        prod = mats[k] @ mats[k + 1]
        prod.sort_indices()
        prod = prod.tocoo()
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


def sorted_unique(keys):
    """The distinct values of an integer array, sorted: np.unique(keys).

    np.sort, then a mask of the rows that differ from their predecessor.
    """
    keys = np.sort(keys, axis=None)
    keep = np.ones(len(keys), dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    return keys[keep]


def found_at(sorted_keys, keys, pos):
    """Which keys sit at their searchsorted positions pos in sorted_keys."""
    if not len(sorted_keys):
        return np.zeros(np.shape(keys), dtype=bool)
    return sorted_keys[np.minimum(pos, len(sorted_keys) - 1)] == keys


def coset_pairs_by_sort(a, b) -> np.ndarray:
    """face_lattice.coset_pairs over every element: one key per element of G.

    a and b are coset tables of one group; the cosets that share an
    element meet, so the distinct keys i * b.count + j, sorted, list every
    meeting pair.  The library reads only the elements with no right
    descent in the shared nodes.
    """
    return sorted_unique(a.coset_id.astype(np.int64) * b.count + b.coset_id)


def covers_by_unique(lat: FaceLattice) -> np.ndarray:
    """The cover pairs, one np.unique over |G| keys per nested slot pair."""
    total = lat.face_total
    pairs = []
    for k in range(lat.n):
        for lo in lat.slots_by_rank[k]:
            lo_ids = lo.table.coset_id.astype(np.int64) + lo.offset
            for hi in lat.slots_by_rank[k + 1]:
                if lo.selection < hi.selection:
                    hi_ids = hi.table.coset_id.astype(np.int64) + hi.offset
                    key = np.unique(lo_ids * total + hi_ids)
                    pairs.append(np.stack([key // total, key % total], axis=1))
    return np.vstack(pairs) if pairs else np.empty((0, 2), dtype=np.int64)


def face_vertex_by_unique(real) -> dict:
    """Each slot's (count, m) vertex lists, one np.unique over |G| keys per slot."""
    lat = real.lattice
    vof = lat.slots_by_rank[0][0].table.coset_id.astype(np.int64)
    total = len(real.points)
    out = {}
    for sl in lat.slots_by_rank:
        for s in sl:
            key = np.unique(s.table.coset_id.astype(np.int64) * total + vof)
            out[s.offset] = (key % total).reshape(s.count, -1).astype(np.int32)
    return out


def affine_rank_per_face(real) -> CheckReport:
    """The affine rank check with one SVD per face of every slot."""
    checked = 0
    bad = []
    for sl in real.lattice.slots_by_rank:
        for s in sl:
            checked += s.count
            if s.rank == 0:
                continue
            pts = real.points[real.slot_vertices(s)]
            centered = pts - pts.mean(axis=1, keepdims=True)
            sv = np.linalg.svd(centered, compute_uv=False)
            wrong = np.flatnonzero((sv > AFFINE_RANK_TOL).sum(axis=1) != s.rank)
            bad.extend(int(w) + s.offset for w in wrong[:10])
    return CheckReport("affine_rank", not bad, {"faces": checked, "violations": bad})


def edge_lengths_by_norm(real) -> np.ndarray:
    """Length of every rank-1 face, slot after slot, by np.linalg.norm of fancy-indexed ends."""
    lengths = []
    for s in real.lattice.slots_by_rank[1]:
        fv = real.slot_vertices(s)
        lengths.append(np.linalg.norm(real.points[fv][:, 0] - real.points[fv][:, 1], axis=1))
    return np.concatenate(lengths)


def ridge_normals(real) -> np.ndarray:
    """Unit normal of span(ridge) for every rank n-2 face, one SVD per ridge.

    A symmetry fixing a ridge pointwise also fixes the origin, hence the
    whole linear span of the ridge; that span must be a hyperplane or no
    reflection through the ridge exists.
    """
    lat = real.lattice
    n = lat.n
    if n < 2:
        raise UnsupportedDimension("ridges need dimension >= 2")
    out = []
    for s in lat.slots_by_rank[n - 2]:
        pts = real.points.take(lat.face_vertices[s.offset], axis=0)
        u_, sv, vt = np.linalg.svd(pts, full_matrices=True)
        ranks = (sv > AFFINE_RANK_TOL).sum(axis=1)
        wrong = np.flatnonzero(ranks != n - 1)
        if wrong.size:
            raise SpanDeficient(
                f"ridge span has dimension {int(ranks[wrong[0]])}, expected {n - 1}"
            )
        out.append(vt[:, -1, :])
    return np.vstack(out)


class NotApplicable(WythoffError):
    """Node-selection rewrite applied to a node whose value is not 1."""


def select_node(dec: Decoration, w: int) -> Decoration:
    """Select active node w: w becomes 2, crossed neighbors of w become 1."""
    if dec.values[w] != ACTIVE:
        raise NotApplicable("node %d has value %d, not 1" % (w, dec.values[w]))
    values = list(dec.values)
    values[w] = SELECTED
    for u in dec.diagram.neighbors(w):
        if values[u] == CROSSED:
            values[u] = ACTIVE
    return Decoration(dec.diagram, tuple(values))


def reachable_decorations(start: Decoration, k: int) -> frozenset:
    """All decorations reachable from start by exactly k selections (BFS)."""
    level = {start}
    for _ in range(k):
        nxt = set()
        for dec in level:
            for w, val in enumerate(dec.values):
                if val == ACTIVE:
                    nxt.add(select_node(dec, w))
        level = nxt
    return frozenset(level)


def _rings(start: Decoration) -> set:
    return {v for v, val in enumerate(start.values) if val == ACTIVE}


def _components_ringed(d, s: set, ringed: set) -> bool:
    """Does every component of the subdiagram induced on s hold a ring?"""
    todo = set(s)
    while todo:
        v = todo.pop()
        comp, stack = {v}, [v]
        while stack:
            u = stack.pop()
            for w in d.neighbors(u):
                if w in s and w not in comp:
                    comp.add(w)
                    stack.append(w)
        if not comp & ringed:
            return False
        todo -= comp
    return True


def selection_sets_by_components(start: Decoration, k: int) -> list:
    """Size-k node sets whose induced components each hold a ring, in combinations order."""
    d, ringed = start.diagram, _rings(start)
    return [
        frozenset(c) for c in combinations(range(d.rank), k)
        if _components_ringed(d, set(c), ringed)
    ]


def decoration_by_formula(start: Decoration, s) -> Decoration:
    """2 on s, 1 on rings and neighbors of s, 0 elsewhere; s must be valid."""
    d, s, ringed = start.diagram, frozenset(s), _rings(start)
    if not _components_ringed(d, set(s), ringed):
        raise InvalidS("selection %s has a ringless component" % sorted(s))
    return Decoration(d, tuple(
        SELECTED if v in s
        else ACTIVE if v in ringed or any(w in s for w in d.neighbors(v))
        else CROSSED
        for v in range(d.rank)
    ))


def ordering_count(start: Decoration) -> int:
    """Maximal rewrite chains from start, summed over reachable decorations."""
    n = start.diagram.rank

    @functools.lru_cache(maxsize=None)
    def count(dec):
        if dec.rank == n:
            return 1
        return sum(count(select_node(dec, w)) for w, v in enumerate(dec.values) if v == ACTIVE)

    return count(start)


def constructions_of(name: str, kmax: int = 12) -> list:
    """Constructions of a named regular polytope (aliases accepted)."""
    cname = canonical_name(name)
    fv = known_f_vector(cname)  # validates the name
    if len(fv) == 1:
        return regular_catalog(1)["segment"]
    if len(fv) == 2:
        k = fv[0]
        catalog = regular_catalog(2, kmax=max(kmax, k))
        return catalog[polygon_name(k)]
    n = len(fv)
    catalog = regular_catalog(n, kmax=kmax)
    if cname not in catalog:
        raise UnknownName(name)
    return catalog[cname]


# -- the regularity rule before the structure-theorem witness ------------------

# The regular single-ring positions on connected diagrams of rank >= 3, in
# catalog order: (family, rank or None for every rank, layout position with
# -1 for the last node, name, gap).  The gap, when set, says why the
# generating group is not flag-transitive on that regular polytope.
_DEMICUBE_GAP = "16-cell from the demihypercube group (index 2)"
_REGULAR_POSITIONS = (
    ("A", None, 0, "{n}-simplex", None),
    ("A", None, -1, "{n}-simplex", None),
    ("B", None, 0, "{n}-hypercube", None),
    ("B", None, -1, "{n}-hyperoctahedron", None),
    ("A", 3, 1, "3-hyperoctahedron", "octahedron from the tetrahedral group (index 2)"),
    ("H", 3, -1, "icosahedron", None),
    ("H", 3, 0, "dodecahedron", None),
    ("D", 4, 0, "4-hyperoctahedron", _DEMICUBE_GAP),
    ("D", 4, 2, "4-hyperoctahedron", _DEMICUBE_GAP),
    ("D", 4, -1, "4-hyperoctahedron", _DEMICUBE_GAP),
    ("F", 4, 0, "24-cell", None),
    ("F", 4, -1, "24-cell", None),
    ("B", 4, 2, "24-cell", "24-cell from the hyperoctahedral group (index 3)"),
    ("D", 4, 1, "24-cell", "24-cell from the D4 group (index 6)"),
    ("H", 4, -1, "600-cell", None),
    ("H", 4, 0, "120-cell", None),
    ("D", None, 0, "{n}-hyperoctahedron", None),
)


def _hypercube_name(n: int) -> str:
    return {1: "segment", 2: polygon_name(4)}.get(n, f"{n}-hypercube")


def _classify(d: DecoratedDiagram) -> tuple[str | None, str, str | None]:
    """(name or None, reason, gap or None) of a non-degenerate diagram.

    A product is a hypercube exactly when each factor on its own is the
    hypercube of its rank.
    """
    tags = classify_components(d)
    if len(tags) == 1:
        return _classify_component(d, tags[0])
    if all(_classify_component(d, t)[0] == _hypercube_name(t.rank) for t in tags):
        return (
            _hypercube_name(d.rank),
            "every factor is a segment or an end-ringed 4-chain",
            "box product: generating group is a proper subgroup of the hypercube group",
        )
    return None, "product with a factor that is not a box", None


def _classify_component(d: DecoratedDiagram, tag) -> tuple[str | None, str, str | None]:
    """_classify of the connected component tag of d, read on its own."""
    n = tag.rank
    rings = [pos for pos, v in enumerate(tag.nodes) if d.marks[v] == RING]
    if n == 1:
        return "segment", "one mirror, one ringed node", None
    if n == 2:
        k = d.label(*tag.nodes)
        return (
            polygon_name(k * len(rings)),
            f"one ring gives a {k}-gon, two give a {2 * k}-gon",
            "doubled polygon: both nodes ringed halves the symmetry" if len(rings) == 2 else None,
        )
    if len(rings) != 1:
        return None, "more than one ring on a connected diagram of dimension >= 3", None
    for family, rank, pos, name, gap in _REGULAR_POSITIONS:
        if (family, rank or n, pos % n) == (tag.family, n, rings[0]):
            name = name.format(n=n)
            return name, f"ring position on {tag} listed as {name}", gap
    return None, f"ring position on {tag} is not a regular one", None


_SIG_CACHE: dict = {}


def shape_signature(d: DecoratedDiagram):
    """Recursive combinatorial fingerprint of the polytope's shape.

    Built from closed-formula f-vectors and the multiset of facet
    signatures, so shapes that merely come from different diagrams (the
    octahedron from A3 or B3, say) get equal signatures without any group
    enumeration.
    """
    key = canonical_certificate(d)
    if key in _SIG_CACHE:
        return _SIG_CACHE[key]
    n = d.rank
    if n == 1:
        sig = ("segment",)
    elif n == 2:
        sig = ("polygon", f_vector_formula(d)[0])
    else:
        start = start_decoration(d)
        total = group_order(d)
        facets = {}
        for _, sel, dec in face_types(start, [n - 1]):
            fsig = shape_signature(face_restriction(start, sel))
            facets[fsig] = facets.get(fsig, 0) + orbit_size(dec, total)
        sig = (n, f_vector_formula(d), tuple(sorted(facets.items())))
    _SIG_CACHE[key] = sig
    return sig


def witness_by_signature(d: DecoratedDiagram):
    """Two same-rank faces with different shapes, or None.

    Returns (rank, selection_a, selection_b) naming the first rank at which
    two face types differ.
    """
    start = start_decoration(d)
    first = {}
    for k, sel, _ in face_types(start, range(2, d.rank)):
        sig = shape_signature(face_restriction(start, sel))
        other, osig = first.setdefault(k, (sel, sig))
        if osig != sig:
            return (k, tuple(sorted(other)), tuple(sorted(sel)))
    return None
