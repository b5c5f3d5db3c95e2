"""Face lattices of Wythoff polytopes.

A rank-k face is a pair (left coset of the face stabilizer, rank-k
decoration); the stabilizer is the parabolic subgroup generated by the
nodes not valued 1.  Faces of consecutive rank are in a cover relation
exactly when their selections nest and their cosets intersect
(coset_pairs).  The whole-polytope face (all nodes selected, a single
coset) serves as the top of the lattice; a synthetic bottom sits below the
vertices.  The covers are kept by nested slot pair (cover_blocks) and
built when first read, so a lattice used only for its f-vector never
builds them; their flat id pairs (covers) are built only when read.

Flags are maximal chains.  They factor exactly as (selection ordering c,
group element g), and the group acts on them by left translation of g
alone, freely.  So the moves of one flag per ordering (_flag_moves) give
the whole flag graph, and each move either changes the ordering and keeps
the element or keeps the ordering and multiplies by one simple reflection.
The flag checks (flag_report) and the partner table (flag_partners) both
read the moves, with no group products and no subgroup closures, and no
flag is ever listed.  Lattice isomorphism needs one walk start per
ordering (lattices_isomorphic).  The diamond property is checked by
joining the cover blocks of adjacent ranks on their shared slot, and the
covers of each block are counted against |G| / |W_(J_lo n J_hi)|.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ._kernels import sorted_unique
from .decoration import (
    Decoration,
    face_types,
    require_nondegenerate,
    selection_orderings,
    start_decoration,
)
from .diagram import DecoratedDiagram, group_order
from .errors import WythoffError
from .reflection_group import Group, coxeter_matrix, enumerate_group


@dataclass(frozen=True)
class Slot:
    """All faces sharing one decoration: a block of coset ids."""

    rank: int
    selection: frozenset
    decoration: Decoration
    table: object            # CosetTable
    offset: int              # global face id of coset 0

    @property
    def count(self) -> int:
        return self.table.count


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
                        i, j = np.divmod(coset_pairs(lo.table, hi.table), hi.count)
                        blocks.append((lo, hi, i, j))
        return blocks

    @cached_property
    def covers(self) -> np.ndarray:
        """(pairs, 2) cover pairs, lower id then upper id, block by block."""
        return np.vstack([
            np.stack([i + lo.offset, j + hi.offset], axis=1)
            for lo, hi, i, j in self.cover_blocks
        ])

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
        return len(self.chains) * self.group.order


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
        table = group.coset_table(dec.stabilizer_nodes())
        slots_by_rank[k].append(Slot(k, sel, dec, table, offset))
        offset += table.count
    return FaceLattice(d, start, group, slots_by_rank)


def coset_pairs(a, b) -> np.ndarray:
    """Sorted keys i * b.count + j of the cosets i of a and j of b that meet.

    a and b are coset tables of one group; cosets meet exactly when they
    share an element, so one key per element, deduplicated, lists every
    meeting pair.  Faces are cosets, so this is the one incidence rule.
    """
    return sorted_unique(a.coset_id.astype(np.int64) * b.count + b.coset_id)


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

    @property
    def ok(self) -> bool:
        return not self.violations and not self.cover_mismatches


def diamond_report(lat: FaceLattice) -> DiamondReport:
    """Every (rank k-1, rank k+1) incident pair has exactly 2 faces between.

    For each rank-k slot the cover blocks into it are joined with each block
    out of it on the middle coset, which every block is sorted by; the
    number of joined rows per (lower, upper) pair is the number of faces
    between them.  The bottom sentinel lies below every vertex, so the
    k = 0 case (each edge has two vertices) and the k = n-1 case (each
    ridge lies in two facets) are included.  At most ten violations per
    rank are listed, as (lower, upper, count) in (lower, upper) order, with
    lower None for the bottom.

    A missing rank of covers forms no such pair, so the covers are also
    counted per block: faces gW_lo and gW_hi meet in one cover per coset of
    W_lo n W_hi = W_(J_lo n J_hi), so there are |G| / |W_(J_lo n J_hi)| of
    them, both orders by formula.  Every block off that count is listed as
    (lower selection, upper selection, found, expected).
    """
    v = lat.slots_by_rank[0][0]
    # the bottom's pseudo-block: lower id 0 below every vertex
    into = {v.offset: [(v, v, np.zeros(v.count, dtype=np.int64), np.arange(v.count))]}
    out_of = {}
    for b in lat.cover_blocks:
        out_of.setdefault(b[0].offset, []).append(b)
        into.setdefault(b[1].offset, []).append(b)
    width = lat.face_total
    checked = 0
    violations = []
    for k in range(lat.n):
        keys = []
        for mid in lat.slots_by_rank[k]:
            ins = into[mid.offset]
            below = np.concatenate([(i + lo.offset) * width for lo, _, i, _ in ins])
            m = np.concatenate([j for _, _, _, j in ins])
            for _, hi, i, j in out_of.get(mid.offset, ()):
                per_mid = np.bincount(i, minlength=mid.count)
                # in-row r joins the per_mid[m[r]] out rows from start[m[r]] on
                start = np.cumsum(per_mid) - per_mid
                reps = per_mid[m]
                rows = np.arange(reps.sum()) + np.repeat(start[m] - np.cumsum(reps) + reps, reps)
                keys.append(np.repeat(below, reps) + (j + hi.offset)[rows])
        keys = np.sort(np.concatenate(keys))
        starts = np.flatnonzero(np.diff(keys, prepend=-1))
        counts = np.diff(np.append(starts, len(keys)))
        checked += len(starts)
        for r in np.flatnonzero(counts != 2)[:10].tolist():
            lower, upper = divmod(int(keys[starts[r]]), width)
            violations.append((None if k == 0 else lower, upper, int(counts[r])))
    return DiamondReport(checked, violations, _cover_count_mismatches(lat))


def _cover_count_mismatches(lat: FaceLattice) -> list:
    d = lat.diagram
    total = group_order(d)
    orders = {(): 1}
    out = []
    for lo, hi, i, _ in lat.cover_blocks:
        common = tuple(sorted(
            set(lo.decoration.stabilizer_nodes()) & set(hi.decoration.stabilizer_nodes())
        ))
        if common not in orders:
            orders[common] = group_order(d.induced(common))
        want = total // orders[common]
        if len(i) != want:
            out.append((sorted(lo.selection), sorted(hi.selection), len(i), want))
    return out


# -- flag graph ------------------------------------------------------------


@dataclass
class FlagReport:
    count: int
    chain_count: int
    degree_ok: bool
    connected: bool
    method: str = "covering"

    @property
    def ok(self) -> bool:
        return self.degree_ok and self.connected


def _flag_moves(lat: FaceLattice) -> dict | None:
    """The move of flag (c, identity) at every rank k, for every ordering c.

    Returns {(c, k): (i, c')}: the rank-k neighbor of (c, identity) is
    (c', s_i), or (c', identity) when i is None.  The rank-k faces between
    the flag's rank-(k-1) and rank-(k+1) faces are read from the coset
    tables: those whose coset meets both identity cosets, marked over the
    slot's cosets by each identity coset in turn.  None when some
    flag does not have exactly two faces there, its own and one other.

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
    stabilizers = [[frozenset(s.decoration.stabilizer_nodes()) for s in sl] for sl in slots]
    between = {}

    def faces_between(k, lo, hi):
        """Rank-k faces meeting the identity cosets of slots lo and hi."""
        if (k, lo, hi) in between:
            return between[(k, lo, hi)]
        lower = slots[k - 1][lo] if lo is not None else None
        upper = slots[k + 1][hi] if hi is not None else None
        out = []
        for si, s in enumerate(slots[k]):
            if lower is not None and not lower.selection < s.selection:
                continue
            if upper is not None and not s.selection < upper.selection:
                continue
            here = np.ones(s.count, dtype=bool)
            for bound in (lower, upper):
                if bound is not None:
                    mark = np.zeros(s.count, dtype=bool)
                    mark[s.table.coset_id[bound.table.subgroup]] = True
                    here &= mark
            out.extend((si, int(c)) for c in np.flatnonzero(here))
        between[(k, lo, hi)] = out
        return out

    moves = {}
    for ci, chain in enumerate(lat.chains):
        for k in range(n):
            mids = faces_between(
                k, chain[k - 1] if k > 0 else None, chain[k + 1] if k + 1 < n else None
            )
            if len(mids) != 2 or (chain[k], 0) not in mids:
                return None
            other_slot, other_coset = next(m for m in mids if m != (chain[k], 0))
            node = None
            if other_slot == chain[k]:
                others = [stabilizers[j][chain[j]] for j in range(n) if j != k]
                inter = frozenset.intersection(*others) if others else frozenset(range(n))
                node = min(inter) if len(inter) == 1 else None
            # the other face must be the coset of the move's element
            h = 0 if node is None else rmult[node, 0]
            if slots[k][other_slot].table.coset_id[h] != other_coset:
                raise WythoffError("flag move is not unique")
            new_chain = chain[:k] + (other_slot,) + chain[k + 1 :]
            moves[(ci, k)] = (node, chain_idx[new_chain])
    return moves


def _flags_connected(moves: dict, orderings: int, n: int) -> bool:
    """Whether the flag graph of these moves of (c, identity) is connected.

    moves is _flag_moves' table over orderings 0..orderings-1.  A move that
    changes the ordering keeps the element, and one that keeps it
    multiplies the element by s_i on the right.  So from (0, identity) the
    walk reaches (c, g) for exactly the orderings c of its component in the
    graph of orderings and the g in W_I, I the nodes that the ordering
    keeping moves of those orderings name.  W_I = W only when I is every
    node (Humphreys, Reflection Groups and Coxeter Groups, 5.5), so the
    graph is connected exactly when every ordering is reached and the moves
    name all n nodes.
    """
    reached, queue = {0}, [0]
    while queue:
        c = queue.pop()
        for k in range(n):
            cj = moves[(c, k)][1]
            if cj not in reached:
                reached.add(cj)
                queue.append(cj)
    named = {i for i, _ in moves.values() if i is not None}
    return len(reached) == orderings and named == set(range(n))


def flag_report(lat: FaceLattice) -> FlagReport:
    """Check every flag has one neighbor per rank and the flag graph is connected.

    Flags are (ordering, g) and faces are cosets, so every rank-k move
    commutes with left translation, exactly in integers: if the rank-k
    neighbor of (c, identity) is (c', h), that of (c, g) is (c', g h).  So
    the degree check needs the n moves of one flag per ordering
    (_flag_moves), and connectivity is one search over the orderings
    (_flags_connected).  No flag is listed.
    """
    chains = lat.chains
    moves = _flag_moves(lat)
    if moves is None:
        return FlagReport(lat.flag_count(), len(chains), False, False)
    return FlagReport(
        lat.flag_count(), len(chains), True, _flags_connected(moves, len(chains), lat.n)
    )


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
    order = lat.group.order
    identity = np.arange(order)
    out = np.empty((lat.n, lat.flag_count()), dtype=np.int64)
    for (c, k), (i, cj) in moves.items():
        block = out[k, c * order : (c + 1) * order]
        block[:] = identity if i is None else lat.group.rmult[i]
        block += cj * order
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
    """JSON-ready dict: faces (rank, selection, rep) plus cover pairs."""
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
