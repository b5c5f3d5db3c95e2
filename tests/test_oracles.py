"""The library's flag, transitivity, diamond, containment, affine rank and
isomorphism answers, and its covers and face-vertex lists, agree with the
routes in oracles.py on every input set below."""

import copy
from collections import Counter
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    _containment_by_sparse,
    _diamond_by_sparse,
    _flag_graph_direct,
    _is_flag_transitive_by_orbit,
    _lattices_isomorphic_per_flag,
    affine_rank_per_face,
    covers_by_unique,
    face_rank,
    face_vertex_by_unique,
    flag_moves_by_cover_scan,
    flag_moves_by_search,
    flag_partners_by_rows,
    flag_report_by_holonomy,
)
from sweep import (
    big_group_diagrams,
    decorated_variants,
    orbit_diagrams,
    rank_34_diagrams,
    sweep_diagrams,
    sweep_products,
)
from wythoff import diagram, face_lattice, geometry, reflection_group
from wythoff.diagram import disjoint_union, parse
from wythoff.errors import WythoffError
from wythoff.face_lattice import (
    FaceLattice,
    build_lattice,
    diamond_report,
    flag_partners,
    flag_report,
    lattices_isomorphic,
)
from wythoff.geometry import affine_rank_check, containment_check
from wythoff.reflection_group import enumerate_group
from wythoff.regular import is_flag_transitive

# beyond this many flags the explicit flag graph costs the suite too much
# time and memory
DIRECT_FLAG_LIMIT = 700_000

INPUT_SETS = {
    "sweep": lambda: [d for base in sweep_diagrams() for d in decorated_variants(base)],
    "products": sweep_products,
    "rank_34": lambda: list(rank_34_diagrams()),
    "big_group": big_group_diagrams,
    "orbit": orbit_diagrams,
}


@pytest.mark.parametrize("name", INPUT_SETS)
def test_flag_report_matches_direct_graph(shared, name):
    compared = 0
    for d in INPUT_SETS[name]():
        lat = shared.lattice(d)
        if lat.flag_count() > DIRECT_FLAG_LIMIT:
            continue
        covering = flag_report(lat)
        direct, partners = _flag_graph_direct(lat)
        assert covering == replace(direct, method="covering"), d
        assert covering.ok, d
        assert np.array_equal(flag_partners(lat), partners), d
        compared += 1
    assert compared


MOVE_ITEMS = {
    **{name: INPUT_SETS[name] for name in ("rank_34", "products", "orbit", "big_group")},
    # rank 1, I2(k) and the many-slot lattices; rank 6 would add about 24 s
    # of subgroup search
    "sweep_rank_5": lambda: [d for d in INPUT_SETS["sweep"]() if d.rank <= 5],
}


@pytest.mark.parametrize("name", MOVE_ITEMS)
def test_flag_moves_match_subgroup_search(shared, name):
    for d in MOVE_ITEMS[name]():
        lat = shared.lattice(d)
        g = lat.group
        old = flag_moves_by_search(lat)
        # the library names each move's element by its node, s_i or -1
        gen, nxt = face_lattice._flag_moves(lat)
        moves = {
            (c, k): (0 if i < 0 else int(g.rmult[i, 0]), int(nxt[c, k]))
            for (c, k), i in np.ndenumerate(gen)
        }
        assert moves == old, d
        by_holonomy = flag_report_by_holonomy(lat, old)
        assert flag_report(lat) == replace(by_holonomy, method="covering"), d
        assert by_holonomy.ok, d
        assert np.array_equal(flag_partners(lat), flag_partners_by_rows(lat, old)), d


@pytest.mark.parametrize("name", INPUT_SETS)
def test_transitivity_matches_orbit_closure(shared, name):
    for d in INPUT_SETS[name]():
        lat = shared.lattice(d)
        expected = _is_flag_transitive_by_orbit(lat)
        assert is_flag_transitive(lat) == expected, d
        assert is_flag_transitive(d) == expected, d


@pytest.mark.parametrize("name", INPUT_SETS)
def test_diamond_and_containment_match_sparse_products(shared, name):
    for d in INPUT_SETS[name]():
        lat = shared.lattice(d)
        assert diamond_report(lat) == _diamond_by_sparse(lat), d
        real = shared.realization(d)
        assert containment_check(real) == _containment_by_sparse(real), d


@pytest.mark.parametrize("text", ["x3x4o", "o5o3x3o", "x5x3x3x"])
def test_containment_reads_each_list_as_a_set(shared, text):
    # every face's vertices, reversed: the same sets in another order
    real = shared.realization(parse(text))
    lat = copy.copy(real.lattice)  # the shared lattice keeps its own lists
    lat.face_vertices = {o: fv[:, ::-1] for o, fv in real.lattice.face_vertices.items()}
    reversed_rows = replace(real, lattice=lat)
    report = containment_check(reversed_rows)
    assert report.ok and report == containment_check(real)
    assert report == _containment_by_sparse(reversed_rows)


AFFINE_ITEMS = {
    **INPUT_SETS,
    "i2_999": lambda: [parse(t) for t in ("x999o", "o999x", "x999x")],
}


def _same_affine_report(real):
    new, old = affine_rank_check(real), affine_rank_per_face(real)
    return new.ok == old.ok and {k: new.detail[k] for k in old.detail} == old.detail


@pytest.mark.parametrize("name", AFFINE_ITEMS)
def test_affine_rank_matches_per_face_svd(shared, name):
    for d in AFFINE_ITEMS[name]():
        real = shared.realization(d)
        assert _same_affine_report(real), d
        # every slot's margin clears its slack, so one SVD per slot decides
        assert affine_rank_check(real).detail["per_face_slots"] == 0, d


def test_affine_rank_without_margin_runs_every_face(shared):
    for text in ("x3x4o", "o5o3x3o", "x999o"):
        # a deviation this large leaves no slot a margin over its slack
        real = replace(shared.realization(parse(text)), deviation=1.0)
        detail = affine_rank_check(real).detail
        assert detail["margin"] < 0
        assert detail["per_face_slots"] == sum(
            len(sl) for sl in real.lattice.slots_by_rank[1:]
        )
        assert _same_affine_report(real), text
    # a hexagon of the truncated octahedron, not its slot's base face, with
    # one vertex swapped for one off its plane: only an SVD of that face
    # sees the rank, and containment_check catches the list either way
    real = shared.realization(parse("x3x4o"))
    s = next(s for s in real.lattice.slots_by_rank[2] if real.slot_vertices(s).shape[1] == 6)
    fv = real.slot_vertices(s).copy()
    fv[1, 0] = np.setdiff1d(np.arange(len(real.points)), fv[1])[0]
    lat = copy.copy(real.lattice)  # the shared lattice keeps its own lists
    lat.face_vertices = {**real.lattice.face_vertices, s.offset: fv}
    bad = replace(real, lattice=lat)
    assert affine_rank_check(bad).ok and not containment_check(bad).ok
    bad = replace(bad, deviation=1.0)
    report = affine_rank_check(bad)
    assert report.detail["violations"] == [s.offset + 1]
    assert _same_affine_report(bad)


def test_a_wrong_base_face_carries_to_its_slot(shared):
    # the base hexagon itself leaves its plane, by a margin far over the
    # slack, so its verdict is every face's of the slot, as the orbit rule
    # says for lists that are g-images of it (containment_check ties them)
    real = shared.realization(parse("x3x4o"))
    s = next(s for s in real.lattice.slots_by_rank[2] if real.slot_vertices(s).shape[1] == 6)
    fv = real.slot_vertices(s).copy()
    fv[0, 0] = np.setdiff1d(np.arange(len(real.points)), fv[0])[0]
    lat = copy.copy(real.lattice)
    lat.face_vertices = {**real.lattice.face_vertices, s.offset: fv}
    detail = affine_rank_check(replace(real, lattice=lat)).detail
    assert detail["violations"] == list(range(s.offset, s.offset + s.count))
    assert detail["margin"] > 0 and detail["per_face_slots"] == 0


@pytest.mark.parametrize("name", ["orbit", "big_group", "products", "rank_34"])
def test_covers_and_face_vertices_match_unique_route(shared, name):
    for d in INPUT_SETS[name]():
        real = shared.realization(d)
        covers, want = real.lattice.covers, covers_by_unique(real.lattice)
        assert covers.dtype == want.dtype and np.array_equal(covers, want), d
        lists = face_vertex_by_unique(real)
        assert real.lattice.face_vertices.keys() == lists.keys()
        for offset, want in lists.items():
            got = real.lattice.face_vertices[offset]
            assert got.dtype == want.dtype and np.array_equal(got, want), (d, offset)


def _face_vertices(real, face_id: int) -> set:
    """Vertex ids of one face, read from its slot's vertex lists."""
    for sl in real.lattice.slots_by_rank:
        for s in sl:
            if s.offset <= face_id < s.offset + s.count:
                return set(real.slot_vertices(s)[face_id - s.offset].tolist())
    raise IndexError(face_id)


def _corrupted_cube(shared):
    """The cube with a cover dropped, one duplicated and two moved.

    A vertex moves to an edge without it (a total miss for containment) and
    an edge to a square sharing one of its vertices (a partial miss).  Each
    cover block stays sorted by its lower face, as the readers expect.
    """
    real = shared.realization(parse("x4o3o"))
    lat = real.lattice
    (v, e, i0, j0), (_, sq, i1, j1), top = lat.cover_blocks
    j0, j1 = j0.copy(), j1.copy()
    for lo, hi, i, j, r in ((v, e, i0, j0, 3), (e, sq, i1, j1, 0)):
        lower = _face_vertices(real, lo.offset + int(i[r]))
        j[r] = next(
            f for f in range(hi.count)
            if len(lower & _face_vertices(real, hi.offset + f)) == lo.rank
        )
    bad = FaceLattice(lat.diagram, lat.start, lat.group, lat.slots_by_rank)
    bad.cover_blocks = [
        (v, e, i0[1:], j0[1:]),
        (e, sq, np.insert(i1, 20, i1[20]), np.insert(j1, 20, j1[20])),
        top,
    ]
    return bad, replace(real, lattice=bad)


def test_corrupted_lattice_reports_agree(shared):
    bad, real = _corrupted_cube(shared)
    new, old = diamond_report(bad), _diamond_by_sparse(bad)
    assert new.pairs_checked == old.pairs_checked
    assert new.violations == old.violations
    rank = face_rank(bad)
    lower_rank = [0 if lo is None else rank[lo] + 1 for lo, _, _ in new.violations]
    assert new.violations and max(np.bincount(lower_rank)) < 10
    bottom_first = sorted(new.violations, key=lambda v: (-1 if v[0] is None else v[0], v[1]))
    assert new.violations == bottom_first
    report = containment_check(real)
    assert report == _containment_by_sparse(real)
    assert report.detail == {"covers": len(bad.covers), "violations": 2}


def test_a_held_group_works_out_each_parabolic_order_once(shared, monkeypatch):
    # each |W_J| is classified once per Coxeter submatrix, whichever
    # lattice or group asks, so a fresh group starts no new work
    diagrams = [parse(text) for text in ("x3x4o", "o3x4x")]
    bad, _ = _corrupted_cube(shared)
    calls = []
    classify = diagram.classify_components
    monkeypatch.setattr(
        diagram,
        "classify_components",
        lambda d: calls.append(diagram._Submatrix(d, list(range(d.rank))).key) or classify(d),
    )
    diagram._coxeter_order.cache_clear()
    reflection_group._held.clear()
    lats = [build_lattice(d) for d in diagrams]
    assert lats[1].group is lats[0].group
    reports = [diamond_report(lat) for lat in lats]
    lats.append(bad)
    reports.append(diamond_report(bad))
    assert reports[-1].cover_mismatches and reports[-1].face_mismatches
    for lat, report in zip(lats, reports, strict=True):
        reflection_group._held.clear()
        fresh = enumerate_group(lat.diagram)
        assert fresh is not lat.group
        again = FaceLattice(lat.diagram, lat.start, fresh, lat.slots_by_rank)
        again.cover_blocks = lat.cover_blocks
        worked = len(calls)
        assert diamond_report(again) == report
        assert len(calls) == worked
    assert calls and len(set(calls)) == len(calls)


CORRUPTIBLE = {
    "x4o3o": lambda: parse("x4o3o"),
    "o3x3o": lambda: parse("o3x3o"),
    "x3x4x": lambda: parse("x3x4x"),
    "prism": lambda: disjoint_union(parse("x3o"), parse("x")),
}


def _with_blocks(lat, blocks):
    """lat with its cover blocks replaced, each sorted by i, then j."""
    bad = FaceLattice(lat.diagram, lat.start, lat.group, lat.slots_by_rank)
    bad.cover_blocks = []
    for lo, hi, i, j in blocks:
        order = np.lexsort((j, i))
        bad.cover_blocks.append((lo, hi, i[order], j[order]))
    return bad


def _assert_diamond_matches(lat, bad):
    """bad's diamond report agrees with the sparse products and the blocks.

    A block is in cover_mismatches when its total differs from lat's, and
    in face_mismatches with the lower and upper faces whose cover counts
    differ from lat's, every face of a valid block being at its count.
    """
    new, old = diamond_report(bad), _diamond_by_sparse(bad)
    assert new.pairs_checked == old.pairs_checked
    assert new.violations == old.violations
    totals, faces = [], []
    for (lo, hi, i, j), (_, _, i0, j0) in zip(bad.cover_blocks, lat.cover_blocks):
        sel = (sorted(lo.selection), sorted(hi.selection))
        if len(i) != len(i0):
            totals.append((*sel, len(i), len(i0)))
        lo_off, hi_off = (
            int(np.count_nonzero(np.bincount(a, minlength=s.count) != np.bincount(a0, minlength=s.count)))
            for a, a0, s in ((i, i0, lo), (j, j0, hi))
        )
        if lo_off or hi_off:
            faces.append((*sel, lo_off, hi_off))
    assert new.cover_mismatches == totals
    assert new.face_mismatches == faces
    return new


@pytest.mark.parametrize("name", CORRUPTIBLE)
def test_emptied_blocks_match_sparse_products(shared, name):
    # a chain through an empty block has zero-width rows
    lat = shared.lattice(CORRUPTIBLE[name]())
    none = np.empty(0, dtype=np.int64)
    for b, (lo, hi, _, _) in enumerate(lat.cover_blocks):
        blocks = list(lat.cover_blocks)
        blocks[b] = (lo, hi, none, none)
        rep = _assert_diamond_matches(lat, _with_blocks(lat, blocks))
        assert not rep.ok


@st.composite
def _corruptions(draw):
    """(name, [(kind, block, cover or face, target)]) for one lattice."""
    name = draw(st.sampled_from(sorted(CORRUPTIBLE)))
    kinds = st.sampled_from(["drop", "duplicate", "move", "shift", "merge", "strip", "empty"])
    ops = draw(st.lists(
        st.tuples(kinds, st.integers(0, 10**6), st.integers(0, 10**6), st.integers(0, 10**6)),
        min_size=1, max_size=4,
    ))
    return name, ops


def _corrupted_blocks(lat, ops) -> list:
    """lat's cover blocks with the ops drawn by _corruptions applied in turn."""
    blocks = [(lo, hi, i.copy(), j.copy()) for lo, hi, i, j in lat.cover_blocks]
    for kind, b, r, t in ops:
        lo, hi, i, j = blocks[b % len(blocks)]
        if kind == "empty":
            i, j = i[:0], j[:0]
        elif kind == "strip":
            # every cover of one face of the block's lower slot, up and down
            face = r % lo.count
            for x, (l2, h2, i2, j2) in enumerate(blocks):
                keep = ~(((i2 == face) & (l2 is lo)) | ((j2 == face) & (h2 is lo)))
                blocks[x] = (l2, h2, i2[keep], j2[keep])
            continue
        elif len(i) == 0:
            continue
        elif kind == "drop":
            i, j = np.delete(i, r % len(i)), np.delete(j, r % len(j))
        elif kind == "duplicate":  # one or two more copies of a cover
            at = [r % len(i)] * (1 + t % 2)
            i, j = np.insert(i, at, i[at]), np.insert(j, at, j[at])
        elif kind == "shift":  # every cover to the next upper face
            j = (j + 1) % hi.count
        elif kind == "merge":  # every cover of one upper face onto another
            j = np.where(j == j[r % len(j)], j[t % len(j)], j)
        elif hi.count > 1:  # move the cover to another upper face
            j = j.copy()
            j[r % len(j)] = (j[r % len(j)] + 1 + t % (hi.count - 1)) % hi.count
        blocks[b % len(blocks)] = (lo, hi, i, j)
    return blocks


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_corruptions())
def test_corrupted_diamond_matches_sparse_products(shared, corruption):
    name, ops = corruption
    d = CORRUPTIBLE[name]()
    lat = shared.lattice(d)
    bad = _with_blocks(lat, _corrupted_blocks(lat, ops))
    _assert_diamond_matches(lat, bad)
    real = replace(shared.realization(d), lattice=bad)
    assert containment_check(real) == _containment_by_sparse(real)


def _moves_outcome(moves, lat):
    """("none",), ("moves", gen, nxt) or ("error", type, message) of one flag move route."""
    try:
        out = moves(lat)
    except WythoffError as e:
        return "error", type(e), str(e)
    return ("none",) if out is None else ("moves", out[0].tolist(), out[1].tolist())


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_corruptions())
# a second cover of vertex 1 by edge 0: the vertices between the bottom
# and edge 0 are still 0 and 1, each once
@example(("x4o3o", [("duplicate", 0, 3, 0)]))
# a second cover of edge 1 by square 0: edge 1 is still one face between
# vertex 0 and square 0
@example(("x4o3o", [("duplicate", 1, 2, 0)]))
# edge 0 over vertex 0 twice, and the other edge of square 0 over it not
# at all: the flag's own face twice is no move
@example(("x4o3o", [("duplicate", 0, 0, 0), ("drop", 0, 2, 0)]))
def test_corrupted_flag_moves_match_the_cover_scan(shared, corruption):
    # the moves read off the one walk over the slot triples agree with a
    # scan of every slot per (ordering, rank): both None, equal tables or
    # the same error, and flag_report follows them
    name, ops = corruption
    lat = shared.lattice(CORRUPTIBLE[name]())
    bad = _with_blocks(lat, _corrupted_blocks(lat, ops))
    want = _moves_outcome(flag_moves_by_cover_scan, bad)
    assert _moves_outcome(face_lattice._flag_moves, bad) == want
    if want[0] == "error":
        with pytest.raises(WythoffError):
            flag_report(bad)
    else:
        report = flag_report(bad)
        assert report.degree_ok == (want[0] == "moves")
        if report.degree_ok:
            moves = tuple(np.array(t) for t in want[1:])
            assert report.connected == face_lattice._flags_connected(*moves)


def test_corrupted_vertex_lists_match_sparse_containment(shared, monkeypatch):
    # each move puts a vertex not in a face's list in place of one of its
    # vertices: the list stays a set, and the slot's vertices no longer lie
    # in equally many of its faces
    built = Counter()
    table = geometry._membership_table

    def counted(lists, nv):
        t = table(lists, nv)
        kind = "dense" if t.dtype == bool else "padded" if (t < 0).any() else "by vertex"
        # only a corrupted slot's padding may pass twice its int32 lists
        assert kind == "padded" or t.nbytes <= 2 * lists.nbytes
        built[kind] += 1
        return t

    monkeypatch.setattr(geometry, "_membership_table", counted)
    moves = st.lists(st.tuples(*[st.integers(0, 10**6)] * 4), min_size=1, max_size=3)

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(_corruptions(), moves)
    # a vertex moved out of face 0 of x3x4x's first edge slot: -1, not 0,
    # must fill the short column
    @example(("x3x4x", [("drop", 0, 0, 0)]), [(0, 0, 0, 0)])
    def check(corruption, moves):
        name, ops = corruption
        d = CORRUPTIBLE[name]()
        lat = shared.lattice(d)
        bad = _with_blocks(lat, _corrupted_blocks(lat, ops))
        bad.face_vertices = {o: fv.copy() for o, fv in lat.face_vertices.items()}
        slots = [s for sl in lat.slots_by_rank[1:] for s in sl]
        nv = lat.slots_by_rank[0][0].count
        for s, f, at, v in moves:
            s = slots[s % len(slots)]
            row = bad.face_vertices[s.offset][f % s.count]
            free = np.setdiff1d(np.arange(nv), row)
            if len(free):
                row[at % len(row)] = free[v % len(free)]
        real = replace(shared.realization(d), lattice=bad)
        assert containment_check(real) == _containment_by_sparse(real)

    check()
    assert built.keys() == {"dense", "by vertex", "padded"}


def test_isomorphism_matches_per_flag_starts(shared):
    lats = [shared.lattice(d) for d in rank_34_diagrams()]
    pairs = 0
    for a, b in combinations(lats, 2):
        if (a.f_vector, a.flag_count()) != (b.f_vector, b.flag_count()):
            continue
        assert lattices_isomorphic(a, b) == _lattices_isomorphic_per_flag(a, b), (
            a.diagram, b.diagram
        )
        pairs += 1
    assert pairs >= 79
