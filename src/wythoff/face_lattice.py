"""Face lattices of Wythoff polytopes.

A rank-k face is a left coset of the face stabilizer W_J, J the nodes not
valued 1 in its rank-k decoration.  Each slot keeps one selection, its
node set J and the coset table of W_J, whose cosets are its faces.  Faces
of consecutive rank are in a cover relation exactly when their selections
nest and their cosets intersect (coset_pairs).  The meeting pairs of two
slots are in bijection with the cosets of W_K, K the nodes both slots
share (W_A n W_B = W_(A n B), Humphreys 5.5), and each such coset has
exactly one element with no right descent in K (Humphreys 1.10;
Bjorner-Brenti 2.4), so coset_pairs reads only those |G| / |W_K|
elements.  The whole-polytope face (all nodes selected, a single coset)
serves as the top of the lattice; a synthetic bottom sits below the
vertices.  The covers are kept by nested slot pair (cover_blocks) and
built when first read, so a lattice used only for its f-vector never
builds them; their flat id pairs (covers) are built only when read, and
so are each slot's face vertex lists (face_vertices).

Flags are maximal chains.  They factor exactly as (selection ordering c,
group element g), and the group acts on them by left translation of g
alone, freely.  So the moves of one flag per ordering (_flag_moves) give
the whole flag graph, and each move either changes the ordering and keeps
the element or keeps the ordering and multiplies by one simple reflection.
The faces between a flag's neighbors are read from the cover blocks.  The
moves are two (orderings, n) integer tables: the node of the move's
reflection (-1 for none) and the neighbor's ordering.  The flag checks
(flag_report) and the partner table (flag_partners) both read them, with
no group products and no subgroup closures, and no flag is ever listed.
Lattice isomorphism needs one walk start per ordering
(lattices_isomorphic).  The diamond property reads each cover block as a
table of the upper faces of each lower face: the tables of adjacent ranks
are chained through each middle slot into one short row per lower face,
and each sorted row must hold every value exactly twice.  The covers of
each block are counted against T = |G| / |W_(J_lo n J_hi)|, and those of
each face against T over its slot's face count.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cache, cached_property

import numpy as np

from ._kernels import found_at
from .decoration import (
    face_types,
    require_nondegenerate,
    selection_orderings,
    start_decoration,
)
from .diagram import DecoratedDiagram, group_order
from .errors import WythoffError
from .reflection_group import Group, _coset_minima, coxeter_matrix, enumerate_group


@dataclass(frozen=True)
class Slot:
    """All faces of one selection: the cosets of W_J, J the stabilizer nodes."""

    rank: int
    selection: frozenset
    nodes: frozenset         # J
    table: object            # CosetTable of W_J
    offset: int              # global face id of coset 0

    @property
    def count(self) -> int:
        return self.table.count


class _BuiltOnRead(Mapping):
    """Slot offset -> build(slot), each value built on its first read and kept."""

    def __init__(self, slots: dict, build):
        self._slots = slots
        self._build = build
        self._built = {}

    def __getitem__(self, offset):
        if offset not in self._built:
            self._built[offset] = self._build(self._slots[offset])
        return self._built[offset]

    def __iter__(self):
        return iter(self._slots)

    def __len__(self) -> int:
        return len(self._slots)


class FaceLattice:
    def __init__(self, diagram, start, group, slots_by_rank):
        self.diagram = diagram
        self.start = start
        self.group = group
        self.n = diagram.rank
        self.slots_by_rank = slots_by_rank
        self.face_total = sum(s.count for sl in slots_by_rank for s in sl)
        self.top_id = slots_by_rank[self.n][0].offset

    @cached_property
    def cover_blocks(self) -> list:
        """(lower slot, upper slot, i, j) per nested slot pair of consecutive ranks.

        Coset i of the lower slot is covered by coset j of the upper one;
        the pairs of each block are sorted by i, then j.
        """
        blocks = []
        for k in range(self.n):
            for lo in self.slots_by_rank[k]:
                for hi in self.slots_by_rank[k + 1]:
                    if lo.selection < hi.selection:
                        i, j = np.divmod(coset_pairs(self.group, lo, hi), hi.count)
                        blocks.append((lo, hi, i, j))
        return blocks

    @cached_property
    def covers(self) -> np.ndarray:
        """(pairs, 2) cover pairs, lower id then upper id, block by block."""
        return np.vstack([
            np.stack([i + lo.offset, j + hi.offset], axis=1)
            for lo, hi, i, j in self.cover_blocks
        ])

    @cached_property
    def face_vertices(self) -> Mapping:
        """Slot offset -> (count, m) int32 sorted vertex ids of each face.

        A face holds the vertices whose cosets its coset meets (coset_pairs).
        The faces of one slot are conjugate, so each has the same number m.
        Each slot's lists are built on their first read, so a reader of one
        rank (realize reads the edges) builds only that rank's.
        """
        # the builder holds the group and the vertex slot, not self: a cycle
        # through the lattice would keep both alive until the cyclic GC ran
        group, vs = self.group, self.slots_by_rank[0][0]

        def face_vertices(s):
            face, vertex = np.divmod(coset_pairs(group, s, vs), vs.count)
            counts = np.bincount(face, minlength=s.count)
            m = int(counts[0])
            if not np.all(counts == m):
                raise WythoffError("conjugate faces with unequal vertex counts")
            return vertex.reshape(s.count, m).astype(np.int32)

        return _BuiltOnRead(
            {s.offset: s for sl in self.slots_by_rank for s in sl}, face_vertices
        )

    @property
    def f_vector(self) -> tuple[int, ...]:
        """Face counts for ranks 0..n-1 (top face excluded)."""
        return tuple(
            sum(s.count for s in self.slots_by_rank[k]) for k in range(self.n)
        )

    # -- flags -----------------------------------------------------------

    @cached_property
    def chains(self) -> list:
        """Selection orderings as per-rank slot indices (ranks 0..n-1)."""
        slot_idx = [
            {s.selection: i for i, s in enumerate(sl)}
            for sl in self.slots_by_rank
        ]
        chains = []
        for ordering in selection_orderings(self.start):
            sel = set()
            path = [slot_idx[0][frozenset()]]
            for w in ordering[:-1]:
                sel.add(w)
                path.append(slot_idx[len(sel)][frozenset(sel)])
            chains.append(tuple(path))
        return chains

    def flag_count(self) -> int:
        return len(self.chains) * group_order(self.diagram)


def build_lattice(d: DecoratedDiagram, group: Group | None = None) -> FaceLattice:
    """Enumerate all faces of the polytope of d; covers follow on first use.

    group, when given, must be the group of d's Coxeter matrix in node
    order (ValueError otherwise); by default it is enumerate_group(d).
    """
    require_nondegenerate(d)
    start = start_decoration(d)
    if group is None:
        group = enumerate_group(d)
    elif not np.array_equal(group.coxeter, coxeter_matrix(d)):
        raise ValueError("the group belongs to another Coxeter matrix")
    slots_by_rank = [[] for _ in range(d.rank + 1)]
    offset = 0
    for k, sel, dec in face_types(start, range(d.rank + 1)):
        nodes = frozenset(dec.stabilizer_nodes())
        table = group.coset_table(nodes)
        slots_by_rank[k].append(Slot(k, sel, nodes, table, offset))
        offset += table.count
    return FaceLattice(d, start, group, slots_by_rank)


def coset_pairs(group: Group, a: Slot, b: Slot) -> np.ndarray:
    """Sorted keys i * b.count + j of the cosets i of a and j of b that meet.

    Faces are cosets, so this is the one incidence rule.  Cosets g W_A and
    h W_B meet exactly when they share an element x, and W_A n W_B = W_K
    for K = A n B (Humphreys, Reflection Groups and Coxeter Groups, 5.5),
    so x W_K -> (x W_A, x W_B) is a bijection from the cosets of W_K onto
    the meeting pairs.  Each coset of W_K has exactly one element with no
    right descent in K (Humphreys 1.10; Bjorner-Brenti 2.4), so those
    elements give every pair once, and no two give the same key; equal
    keys mean the coset tables disagree with the descent bits, and raise
    WythoffError.
    """
    mask = sum(1 << v for v in a.nodes & b.nodes)
    reps = np.flatnonzero((group.descents & mask) == 0)
    keys = a.table.coset_id.take(reps).astype(np.int64) * b.count + b.table.coset_id.take(reps)
    keys.sort()
    if (keys[1:] == keys[:-1]).any():
        raise WythoffError("two minimal coset representatives give one coset pair")
    return keys


def euler_ok(lat: FaceLattice) -> bool:
    n = lat.n
    total = sum((-1) ** k * f for k, f in enumerate(lat.f_vector))
    return total == 1 - (-1) ** n


# -- diamond property ------------------------------------------------------


@dataclass
class DiamondReport:
    pairs_checked: int
    violations: list
    cover_mismatches: list = field(default_factory=list)
    face_mismatches: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not (self.violations or self.cover_mismatches or self.face_mismatches)


def diamond_report(lat: FaceLattice) -> DiamondReport:
    """Every (rank k-1, rank k+1) incident pair has exactly 2 faces between.

    Each cover block is read as an up-table, one row of upper faces per
    lower face (_up_tables).  For each pair of a lower and an upper slot
    the tables are chained through each middle slot between them,
    up[mid -> hi][up[lo -> mid]], and joined into one short row per lower
    face, in which each upper face appears once per face between.  A
    sorted row passes when its values come in equal pairs and no pair
    equals the next; only the rows that fail are read run by run.  The
    bottom lies below every vertex, so the k = 0 case (each edge has two
    vertices) is the per-edge count of the vertex -> edge blocks; the
    k = n-1 case (each ridge lies in two facets) chains into the top.  At
    most ten violations per rank are listed, as (lower, upper, count) in
    (lower, upper) order, with lower None for the bottom.

    A missing rank of covers forms no such pair, so the covers are also
    counted.  Faces gW_lo and gW_hi meet in one cover per coset of
    W_lo n W_hi = W_(J_lo n J_hi), so a block has T = |G| / |W_(J_lo n J_hi)|
    covers: every lower face T / lo.count of them and every upper face
    T / hi.count.  Each block off the total is listed in cover_mismatches
    as (lower selection, upper selection, found, T), and each block with a
    face off its count in face_mismatches as (lower selection, upper
    selection, lower faces off, upper faces off).
    """
    blocks = lat.cover_blocks
    ups, per_edge, cover_mismatches, face_mismatches = _up_tables(lat)
    checked = 0
    found = [[] for _ in range(lat.n)]
    for hi, counts in per_edge:
        checked += int(np.count_nonzero(counts))
        bad = np.flatnonzero((counts != 0) & (counts != 2))[:10]
        found[0] += [(None, hi.offset + e, c) for e, c in zip(bad.tolist(), counts[bad].tolist())]
    # (lower slot, upper slot) -> the (lower -> middle, middle -> upper)
    # block pairs, one per middle slot between them
    into = {}
    for a, (_, mid, _, _) in enumerate(blocks):
        into.setdefault(mid.offset, []).append(a)
    paths = {}
    for b, (mid, hi, _, _) in enumerate(blocks):
        for a in into.get(mid.offset, ()):
            paths.setdefault((blocks[a][0].offset, hi.offset), []).append((a, b))
    for chain in paths.values():
        (lo, mid, _, _), (_, hi, _, _) = blocks[chain[0][0]], blocks[chain[0][1]]
        rows = [_chain(ups[a], ups[b]) for a, b in chain]
        rows = rows[0] if len(rows) == 1 else np.concatenate(rows, axis=1)
        w = rows.shape[1]
        if w == 0:
            continue
        # most rows hold two values, which pass when equal in either order
        if w > 2:
            rows.sort(axis=1)
        if w % 2 or any(ups[a][1] or ups[b][1] for a, b in chain):
            bad = np.arange(lo.count)
        else:
            pairs, steps = rows[:, 0::2] == rows[:, 1::2], rows[:, 1:-1:2] != rows[:, 2::2]
            if pairs.all() and steps.all():
                checked += lo.count * (w // 2)
                continue
            bad = np.flatnonzero(~(pairs.all(axis=1) & steps.all(axis=1)))
            checked += (lo.count - len(bad)) * (w // 2)
        sub = rows[bad]
        keys = np.sort((bad[:, None] * hi.count + sub)[sub >= 0])
        starts = np.flatnonzero(np.diff(keys, prepend=-1))
        counts = np.diff(np.append(starts, len(keys)))
        checked += len(starts)
        for r in np.flatnonzero(counts != 2)[:10].tolist():
            lower, upper = divmod(int(keys[starts[r]]), hi.count)
            found[mid.rank].append((lo.offset + lower, hi.offset + upper, int(counts[r])))
    violations = [v for f in found for v in sorted(f, key=lambda v: (v[0] or 0, v[1]))[:10]]
    return DiamondReport(checked, violations, cover_mismatches, face_mismatches)


def _up_tables(lat: FaceLattice) -> tuple:
    """Each cover block as a table of the upper faces of each lower face.

    Returns (ups, per_edge, cover_mismatches, face_mismatches), the last two
    as diamond_report lists them.  ups[b] is (table, padded) for block b:
    row i holds the upper faces of lower face i.  When every lower face has
    the T / lo.count covers of a valid lattice, the block, sorted by i, is
    that table reshaped; otherwise the rows are padded with -1 and padded
    is True.  per_edge holds (edge slot, vertices of each edge) for the
    vertex -> edge blocks.
    """
    d = lat.diagram
    total = lat.group.order
    orders = lat.group.parabolic_orders
    ups, per_edge, totals, faces = [], [], [], []
    for lo, hi, i, j in lat.cover_blocks:
        common = tuple(sorted(lo.nodes & hi.nodes))
        if common not in orders:
            orders[common] = group_order(d.induced(common))
        want = total // orders[common]
        if len(i) != want:
            totals.append((sorted(lo.selection), sorted(hi.selection), len(i), want))
        per_lo = np.bincount(i, minlength=lo.count)
        per_hi = np.bincount(j, minlength=hi.count)
        lo_off = int(np.count_nonzero(per_lo != want // lo.count))
        hi_off = int(np.count_nonzero(per_hi != want // hi.count))
        if lo_off or hi_off:
            faces.append((sorted(lo.selection), sorted(hi.selection), lo_off, hi_off))
        if lo.rank == 0:
            per_edge.append((hi, per_hi))
        if lo_off:
            up = np.full((lo.count, per_lo.max()), -1, dtype=j.dtype)
            up[i, np.arange(len(i)) - (np.cumsum(per_lo) - per_lo)[i]] = j
            ups.append((up, True))
        else:
            ups.append((j.reshape(lo.count, want // lo.count), False))
    return ups, per_edge, totals, faces


def _chain(lower: tuple, upper: tuple) -> np.ndarray:
    """(lower count, d1 * d2) upper faces of lower faces over one middle slot.

    lower and upper are _up_tables entries of a lower -> middle and a
    middle -> upper block; a -1 in a padded lower table stays -1.
    """
    (lm, padded), (mh, _) = lower, upper
    out = mh.take(lm, axis=0)
    if padded:
        out[lm < 0] = -1
    return out.reshape(len(lm), lm.shape[1] * mh.shape[1])


# -- flag graph ------------------------------------------------------------


@dataclass
class FlagReport:
    count: int
    degree_ok: bool
    connected: bool
    method: str = "covering"

    @property
    def ok(self) -> bool:
        return self.degree_ok and self.connected


def _flag_moves(lat: FaceLattice) -> tuple[np.ndarray, np.ndarray] | None:
    """The move of flag (c, identity) at every rank k, for every ordering c.

    Returns (gen, nxt), two (orderings, n) integer tables: the rank-k
    neighbor of (c, identity) is (nxt[c, k], s_i) with i = gen[c, k], or
    (nxt[c, k], identity) when gen[c, k] is -1.  The rank-k faces between
    the flag's rank-(k-1) and rank-(k+1) faces are read from the cover
    blocks: those covering the face below, which every vertex does for the
    bottom, and covered by the face above.  None when some flag does not
    have exactly two faces there, its own and one other.

    The other face gives the move.  Let J_j be the stabilizer nodes of the
    flag's rank-j face and K the nodes in every J_j but J_k.  Every h in W_K
    fixes the flag's other faces, so h W_(J_k) lies between them, in the
    flag's own slot; and coset 0 of every slot nested between them meets
    both identity cosets, so it lies between them too.  G acts freely on
    flags, so distinct h give distinct faces, and the neighbor (c, h) of a
    flag that keeps its ordering has h != identity in the intersection of
    the W_(J_j), j != k, which is W_K.  With exactly two faces between:
    - a face in another slot is that slot's coset 0, and h = identity;
    - a face in the flag's own slot is h W_(J_k) with W_K = {1, h}, so K is
      one node {i} and h = s_i.
    Anything else raises WythoffError.
    """
    rmult = lat.group.rmult
    n = lat.n
    chain_idx = {c: i for i, c in enumerate(lat.chains)}
    slots = lat.slots_by_rank
    # per (lower, upper) slot offsets: the upper faces over the lower coset 0,
    # a prefix of the block sorted by i, and the lower faces under the upper
    # coset 0.  The bottom, offset -1, is below every vertex
    v = slots[0][0]
    over, under = {(-1, v.offset): np.arange(v.count)}, {}
    for lo, hi, i, j in lat.cover_blocks:
        over[lo.offset, hi.offset] = j[: np.searchsorted(i, 1)]
        under[lo.offset, hi.offset] = i[j == 0]

    @cache
    def faces_between(k, lower, upper):
        """Rank-k faces over coset 0 of slot offset lower and under that of upper."""
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
            if len(mids) != 2 or (chain[k], 0) not in mids:
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


def _flags_connected(gen: np.ndarray, nxt: np.ndarray) -> bool:
    """Whether the flag graph of these moves of (c, identity) is connected.

    gen and nxt are _flag_moves' tables.  A move that changes the ordering
    keeps the element, and one that keeps it multiplies the element by s_i
    on the right.  So from (0, identity) the walk reaches (c, g) for
    exactly the orderings c of its component in the graph of orderings (the
    columns of nxt) and the g in W_I, I the nodes that the moves of those
    orderings name.  W_I = W only when I is every node (Humphreys,
    Reflection Groups and Coxeter Groups, 5.5), so the graph is connected
    exactly when the orderings form one component and the moves name all
    n nodes.
    """
    orderings, n = nxt.shape
    one_component = not _coset_minima(orderings, list(nxt.T)).any()
    return one_component and set(gen.ravel().tolist()) >= set(range(n))


def flag_report(lat: FaceLattice) -> FlagReport:
    """Check every flag has one neighbor per rank and the flag graph is connected.

    Flags are (ordering, g) and faces are cosets, so every rank-k move
    commutes with left translation, exactly in integers: if the rank-k
    neighbor of (c, identity) is (c', h), that of (c, g) is (c', g h).  So
    the degree check needs the n moves of one flag per ordering
    (_flag_moves), and connectivity is one labelling of the orderings
    (_flags_connected).  No flag is listed.
    """
    moves = _flag_moves(lat)
    if moves is None:
        return FlagReport(lat.flag_count(), False, False)
    return FlagReport(lat.flag_count(), True, _flags_connected(*moves))


def flag_partners(lat: FaceLattice) -> np.ndarray:
    """(n, flag_count) partner table: the rank-k neighbor of each flag.

    Flag (c, g) is number c |G| + g.  Its rank-k neighbor is (c', g s_i) or
    (c', g), where (c', s_i) or (c', identity) is the rank-k move of
    (c, identity) (see flag_report), so each ordering's block of a row is
    c' |G| plus rmult[i] or the identity map.  No flag is listed.
    """
    moves = _flag_moves(lat)
    if moves is None:
        raise WythoffError("flag graph is not a matching per rank")
    gen, nxt = moves
    order = lat.group.order
    identity = np.arange(order)
    out = np.empty((lat.n, lat.flag_count()), dtype=np.int64)
    for (c, k), i in np.ndenumerate(gen):
        block = out[k, c * order : (c + 1) * order]
        block[:] = identity if i < 0 else lat.group.rmult[i]
        block += nxt[c, k] * order
    return out


# -- lattice isomorphism ---------------------------------------------------


def _walk_code(partners: list, start: int, ref: list | None = None) -> list | None:
    """Canonical BFS renumbering of the flag graph from one start flag.

    partners[f][k] is the rank-k neighbor of flag f.  The per-rank matchings
    make the walk deterministic, so two polytopes are isomorphic exactly
    when some start yields identical codes.  Given a reference code ref,
    the walk returns None at the first row that differs from it.
    """
    ids = {start: 0}
    order = [start]
    code = []
    for f in order:
        row = []
        for g in partners[f]:
            if g not in ids:
                ids[g] = len(order)
                order.append(g)
            row.append(ids[g])
        if ref is not None and row != ref[len(code)]:
            return None
        code.append(row)
    if len(order) != len(partners):
        raise WythoffError("flag graph is disconnected")
    return code


def lattices_isomorphic(a: FaceLattice, b: FaceLattice) -> bool:
    """Rank-preserving lattice isomorphism test via flag-walk codes.

    Left translation by g^-1 is an automorphism of b taking the flag
    (c, g) to (c, identity), so if any isomorphism takes a's first flag into
    chain c of b, another takes it to (c, identity), flag number c |G|.  One
    walk start per ordering of b therefore suffices.
    """
    if a.f_vector != b.f_vector or a.flag_count() != b.flag_count():
        return False
    ref = _walk_code(flag_partners(a).T.tolist(), 0)
    pb = flag_partners(b).T.tolist()
    return any(
        _walk_code(pb, c * b.group.order, ref) is not None
        for c in range(len(b.chains))
    )


def lattice_document(lat: FaceLattice) -> dict:
    """JSON-ready dict: faces (rank, selection, coset_rep) plus cover pairs.

    coset_rep is the index of the shortest element of the face's coset, the
    canonical representative of Group.coset_table.
    """
    d = lat.diagram
    return {
        "rank": lat.n,
        "f_vector": list(lat.f_vector),
        "faces": [
            {
                "id": s.offset + c,
                "rank": s.rank,
                "selection": [d.node_ids[v] for v in sorted(s.selection)],
                "coset_rep": rep,
            }
            for sl in lat.slots_by_rank
            for s in sl
            for c, rep in enumerate(s.table.reps.tolist())
        ],
        "covers": lat.covers.tolist(),
        "top": lat.top_id,
    }
